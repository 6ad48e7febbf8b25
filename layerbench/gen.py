"""Seeded inputs for every workload, with answers known by construction.

Every input is a fixed template whose labels (and, for pairs, state
names) are drawn from a seeded ``random.Random``, so each op is
content-new while its structure -- and therefore its cost and its
correct answer -- is fixed by the template.  Nothing here calls the
procedures being measured: the expected verdict of each template
follows from how it is built (see the comment on each kind).

The same ``(seed, block)`` always yields byte-identical files and
specs; nothing iterates over a ``set`` or depends on ``hash()``, so
``PYTHONHASHSEED`` cannot change the output (see ``determinism.py``).
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Sequence, Tuple

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def rng_for(seed: int, *parts: object) -> random.Random:
    """An independent stream per (seed, purpose, block) -- a string
    seed is hashed with SHA-512 by ``random``, never with ``hash()``."""
    return random.Random("layerbench/%d/%s" % (seed, "/".join(map(str, parts))))


def fresh_labels(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct random identifiers, never a format keyword."""
    labels: List[str] = []
    while len(labels) < count:
        label = "x" + "".join(rng.choice(_LETTERS) for _ in range(7))
        if label not in labels:
            labels.append(label)
    return labels


# ---------------------------------------------------------------------------
# check / serve: top-down .tdx + .schema pairs
# ---------------------------------------------------------------------------

# The schema every pair template runs against: a reduced Example 2.3
# recipe DTD.  R=recipes E=recipe D=description I=ingredients M=item
# C=comments P=negative Q=positive K=comment.
SCHEMA_TEMPLATE = """start {R}
{R} -> {E}*
{E} -> {D} . {I} . {C}
{I} -> {M}*
{C} -> {P} . {Q}
{P} -> {K}*
{Q} -> {K}*
{D} -> text
{M} -> text
{K} -> text
"""

# kind -> (transducer template, protected labels, expected job fields).
# Expected fields: (verdict, copying, rearranging, protected deletions).
PAIR_KINDS: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, bool, bool, Tuple[str, ...]]]] = {
    # Each recipe body is processed twice (Lemma 4.5): copying, and the
    # second copy of the description follows the first ingredients, so
    # it rearranges too.
    "copying": (
        """initial {s0}
rule {s0} {R} -> {R}({s0})
rule {s0} {E} -> {E}({s1} {s1})
rule {s1} {D} -> {D}({s2})
rule {s1} {I} -> {I}({s2})
rule {s2} {M} -> {s2}
text {s2}
""",
        (),
        ("unsafe", True, True, ()),
    ),
    # Positive comments are rendered before negative ones (Lemma 4.6):
    # rearranging; every text node is still output at most once.
    "rearranging": (
        """initial {s0}
rule {s0} {R} -> {R}({s0})
rule {s0} {E} -> {E}({s1})
rule {s1} {D} -> {D}({s2})
rule {s1} {I} -> {I}({s2})
rule {s1} {C} -> {C}({s3} {s4})
rule {s3} {Q} -> {Q}({s2})
rule {s4} {P} -> {P}({s2})
rule {s2} {M} -> {s2}
rule {s2} {K} -> {K}({s2})
text {s2}
""",
        (),
        ("unsafe", False, True, ()),
    ),
    # Example 4.2's selection (drops the comments) audited with the
    # comment label protected (Section 7): a protected deletion.
    "protected": (
        """initial {s0}
rule {s0} {R} -> {R}({s0})
rule {s0} {E} -> {E}({s1})
rule {s1} {D} -> {D}({s2})
rule {s1} {I} -> {I}({s2})
rule {s2} {M} -> {s2}
text {s2}
""",
        ("K",),
        ("unsafe", False, False, ("K",)),
    ),
    # Two text-carrying states side by side under the recipe: the
    # dataflow pre-filter sees an inversion site and cannot prove the
    # pair safe, but the schema puts the description and ingredients
    # (state s1) before the comments (state s3), and each child is
    # matched by exactly one of the two states -- safe, decided by the
    # full Lemma 4.9/4.10 products.
    "safe_full": (
        """initial {s0}
rule {s0} {R} -> {R}({s0})
rule {s0} {E} -> {E}({s1} {s3})
rule {s1} {D} -> {D}({s2})
rule {s1} {I} -> {I}({s2})
rule {s3} {C} -> {C}({s2})
rule {s2} {M} -> {s2}
rule {s2} {P} -> {P}({s2})
rule {s2} {Q} -> {Q}({s2})
rule {s2} {K} -> {K}({s2})
text {s2}
""",
        (),
        ("safe", False, False, ()),
    ),
    # One text-carrying state per rule: copy-free and order-safe, so
    # the dataflow pre-filter proves it safe without any product.
    "safe_prefilter": (
        """initial {s0}
rule {s0} {R} -> {R}({s0})
rule {s0} {E} -> {E}({s1})
rule {s1} {D} -> {D}({s2})
rule {s1} {I} -> {I}({s2})
rule {s2} {M} -> {s2}
text {s2}
""",
        (),
        ("safe", False, False, ()),
    ),
}

_SCHEMA_KEYS = ("R", "E", "D", "I", "M", "C", "P", "Q", "K")
_STATE_KEYS = ("s0", "s1", "s2", "s3", "s4")


class Pair:
    """One generated ``.tdx``/``.schema`` pair and its expected job."""

    def __init__(self, kind: str, name: str, tdx: str, schema: str,
                 protect: Tuple[str, ...], expected: Dict[str, object]) -> None:
        self.kind = kind
        self.name = name
        self.tdx = tdx
        self.schema = schema
        self.protect = protect
        self.expected = expected

    def write(self, directory: str) -> Tuple[str, str]:
        """Write both files under ``directory``; returns their paths."""
        tdx_path = os.path.join(directory, self.name + ".tdx")
        schema_path = os.path.join(directory, self.name + ".schema")
        for path, body in ((tdx_path, self.tdx), (schema_path, self.schema)):
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(body)
        return tdx_path, schema_path


def make_pair(kind: str, rng: random.Random, name: str) -> Pair:
    """A content-new pair of ``kind`` (fresh labels and state names)."""
    template, protect_keys, (verdict, copying, rearranging, deleted) = PAIR_KINDS[kind]
    names = dict(zip(_SCHEMA_KEYS, fresh_labels(rng, len(_SCHEMA_KEYS))))
    names.update(zip(_STATE_KEYS, fresh_labels(rng, len(_STATE_KEYS))))
    expected = {
        "verdict": verdict,
        "copying": copying,
        "rearranging": rearranging,
        "protected_deletions": [names[key] for key in deleted],
    }
    return Pair(
        kind, name,
        template.format(**names),
        SCHEMA_TEMPLATE.format(**names),
        tuple(names[key] for key in protect_keys),
        expected,
    )


def block_order(rng: random.Random, composition: Sequence[Tuple[str, int]]) -> List[str]:
    """The kinds of one block: fixed counts, seeded order."""
    kinds = [kind for kind, count in composition for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def pair_block(seed: int, block: int, composition: Sequence[Tuple[str, int]],
               tag: str = "p") -> List[Pair]:
    """One block of content-new pairs."""
    rng = rng_for(seed, "pairs", tag, block)
    return [
        make_pair(kind, rng, "%s%03d_%02d_%s" % (tag, block, index, kind))
        for index, kind in enumerate(block_order(rng, composition))
    ]


# ---------------------------------------------------------------------------
# exptime: typechecking (Section 6) and DTL^XPath (Theorem 5.18) instances
# ---------------------------------------------------------------------------

# kind -> (number of fresh labels, expected answer).  The instances are
# built by ``instances.build``; the answers follow from their shape:
EXPTIME_KINDS: Dict[str, Tuple[int, bool]] = {
    # E13 keeper against r -> a: emits b, which the output DTD lacks.
    "tc_keeper_ill": (3, False),
    # E13 swapper against r -> b . a: the swap is exactly the output type.
    "tc_swapper_ok": (3, True),
    # wide_instance(2) against its exact output DTD r -> c1 . c2.
    "tc_wide2_ok": (3, True),
    # Example 4.2 on a reduced recipe DTD against its exact output DTD.
    "tc_ex42_ok": (5, True),
    # The same, but the output DTD demands a non-empty ingredient list
    # while the input allows recipes without items.
    "tc_ex42_ill": (5, False),
    # DTL^XPath identity on a one-label schema: text-preserving.
    "dtl_keep": (1, True),
    # Example 5.15-style sibling filter (keep children that have a
    # following sibling): deletes whole children, text-preserving.
    "dtl_filter": (1, True),
    # Root rule calls its children twice: copies text.
    "dtl_copy": (1, False),
}


def exptime_block(seed: int, block: int, composition: Sequence[Tuple[str, int]]) -> List[Dict[str, object]]:
    """One block of content-new EXPTIME op specs."""
    rng = rng_for(seed, "exptime", block)
    specs: List[Dict[str, object]] = []
    for kind in block_order(rng, composition):
        count, expected = EXPTIME_KINDS[kind]
        specs.append({"kind": kind, "labels": fresh_labels(rng, count), "expected": expected})
    return specs


def resubmit_plan(kinds: Sequence[str], copies: Dict[str, int]) -> List[Tuple[int, bool]]:
    """The run order of one block; entries are ``(op index, is_resubmission)``.

    Ops of the kinds in ``copies`` run first, in the given order, then
    every other op, in the given order, each followed by an even share
    of the block's resubmissions (``copies[kind]`` per op of such a
    kind, interleaved in proportion).  Spread over the block, each
    resubmission samples the host at another moment: a burst of them
    right after the first run landed together in one of the host's
    fast or slow spells, whose costs for the same 2 ms op differ 1.7x."""
    first = [index for index, kind in enumerate(kinds) if kind in copies]
    rest = [index for index, kind in enumerate(kinds) if kind not in copies]
    points = sorted(((copy + 0.5) / copies[kinds[index]], index)
                    for index in first for copy in range(copies[kinds[index]]))
    again = [index for _, index in points]
    plan: List[Tuple[int, bool]] = [(index, False) for index in first]
    for slot, index in enumerate(rest):
        plan.append((index, False))
        share = again[len(again) * slot // len(rest):len(again) * (slot + 1) // len(rest)]
        plan.extend((repeat, True) for repeat in share)
    return plan
