"""Build the exptime workload's instances from their specs (see
``gen.EXPTIME_KINDS``).  Imported only where ``repro`` is importable."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro import TEXT, DTD, DTLTransducer, TopDownTransducer, dtd_to_nta, nta_from_rules
from repro.core.dtl import Call


def _e13_schema(r: str, a: str, b: str) -> Any:
    return nta_from_rules(
        alphabet={r, a, b},
        rules={("q0", r): "qa qb", ("qa", a): "qt", ("qb", b): "qt", ("qt", TEXT): "eps"},
        initial="q0",
    )


def _e13_transducer(r: str, a: str, b: str, swap: bool) -> TopDownTransducer:
    order = "qb qa" if swap else "qa qb"
    return TopDownTransducer(
        states={"q0", "qa", "qb", "qt"},
        rules={
            ("q0", r): "%s(%s)" % (r, order),
            ("qa", a): "%s(qt)" % a,
            ("qb", b): "%s(qt)" % b,
            ("qt", "text"): "text",
        },
        initial="q0",
    )


def _wide2(r: str, c1: str, c2: str) -> Tuple[TopDownTransducer, Any, DTD]:
    """``repro.workloads.wide_instance(2)`` with fresh labels."""
    transducer = TopDownTransducer(
        states={"q0", "qt", "q1", "q2"},
        rules={
            ("q0", r): "%s(q1 q2)" % r,
            ("q1", c1): "%s(qt)" % c1,
            ("q2", c2): "%s(qt)" % c2,
            ("qt", "text"): "text",
        },
        initial="q0",
    )
    schema = nta_from_rules(
        alphabet={r, c1, c2},
        rules={("s0", r): "s1 s2", ("s1", c1): "st", ("s2", c2): "st", ("st", TEXT): "eps"},
        initial="s0",
    )
    return transducer, schema, DTD({r: "%s . %s" % (c1, c2), c1: "text", c2: "text"}, start={r})


def _ex42(labels: List[str], ill: bool) -> Tuple[TopDownTransducer, Any, DTD]:
    """Example 4.2 on recipes -> recipe*, recipe -> description .
    ingredients, ingredients -> item*."""
    recipes, recipe, description, ingredients, item = labels
    transducer = TopDownTransducer(
        states={"q0", "qsel", "q"},
        rules={
            ("q0", recipes): "%s(q0)" % recipes,
            ("q0", recipe): "%s(qsel)" % recipe,
            ("qsel", description): "%s(q)" % description,
            ("qsel", ingredients): "%s(q)" % ingredients,
            ("q", item): "q",
            ("q", "text"): "text",
        },
        initial="q0",
    )
    schema = dtd_to_nta(DTD(
        {
            recipes: "%s*" % recipe,
            recipe: "%s . %s" % (description, ingredients),
            description: "text",
            ingredients: "%s*" % item,
            item: "text",
        },
        start={recipes},
    ))
    output = DTD(
        {
            recipes: "%s*" % recipe,
            recipe: "%s . %s" % (description, ingredients),
            description: "text",
            ingredients: "text . text*" if ill else "text*",
        },
        start={recipes},
    )
    return transducer, schema, output


def _dtl(kind: str, label: str) -> Tuple[DTLTransducer, Any]:
    """One-label DTL^XPath programs over ``x(x(text)*)``."""
    schema = nta_from_rules(
        alphabet={label},
        rules={("q0", label): "qc*", ("qc", label): "qt", ("qt", TEXT): "eps"},
        initial="q0",
    )
    root_calls = [Call("q", "down")]
    child_pattern = label
    if kind == "dtl_copy":
        root_calls = [Call("q", "down"), Call("q", "down")]
    elif kind == "dtl_filter":
        child_pattern = "%s and <right>" % label
    transducer = DTLTransducer(
        states={"q0", "q"},
        sigma_rules=[
            ("q0", label, (label, root_calls)),
            ("q", child_pattern, (label, [Call("q", "down")])),
        ],
        text_states={"q"},
        initial="q0",
    )
    return transducer, schema


def build(spec: Dict[str, Any]) -> Tuple[Callable[[], bool], Any, Any, Any]:
    """``(decide, transducer, input schema NTA, output DTD or None)``;
    ``decide()`` runs the measured procedure through the public API."""
    from repro import is_text_preserving
    from repro.core.typecheck import typechecks

    kind, labels = spec["kind"], list(spec["labels"])
    if kind.startswith("dtl_"):
        transducer, schema = _dtl(kind, labels[0])
        return (lambda: is_text_preserving(transducer, schema)), transducer, schema, None
    if kind in ("tc_keeper_ill", "tc_swapper_ok"):
        r, a, b = labels
        schema = _e13_schema(r, a, b)
        if kind == "tc_keeper_ill":
            transducer = _e13_transducer(r, a, b, swap=False)
            output = DTD({r: a, a: "text"}, start={r})
        else:
            transducer = _e13_transducer(r, a, b, swap=True)
            output = DTD({r: "%s . %s" % (b, a), a: "text", b: "text"}, start={r})
    elif kind == "tc_wide2_ok":
        transducer, schema, output = _wide2(*labels)
    else:
        transducer, schema, output = _ex42(labels, ill=(kind == "tc_ex42_ill"))
    return (lambda: typechecks(transducer, schema, output)), transducer, schema, output
