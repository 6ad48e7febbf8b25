"""Independent answer checks, run outside every timed region.

* expected answers come from ``gen`` (how each input was built);
* job objects must pass ``repro.corpus.validate_job_object``;
* every unsafe verdict's ``counter_example_xml`` is certified against
  Definitions 2.2/3.1 (``repro.core.characterization``): the witness is
  valid for the schema and the transducer does not preserve its text;
* small instances are cross-checked with the brute-force
  ``repro.bounded_oracle`` (and, for typechecking, by running the
  transducer on every enumerated input and validating the output).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import bounded_oracle, dtd_to_nta, make_value_unique, text_values, xml_to_tree
from repro.automata.enumerate import enumerate_trees
from repro.cli import load_schema, load_transducer
from repro.core.characterization import (
    is_copying_on,
    is_rearranging_on,
    is_text_preserving_on,
    output_text_values,
)
from repro.corpus import validate_job_object

#: Enumeration bounds: large enough that every unsafe template has a
#: witness inside them (the smallest rearranging recipe has 12 nodes).
PAIR_ORACLE_SIZE = 12
EXPTIME_ORACLE_SIZE = 8

_FIELDS = ("verdict", "copying", "rearranging", "protected_deletions")


def check_job(job: Dict[str, Any], expected: Dict[str, Any], tdx: str, schema: str) -> List[str]:
    """Problems with one job object for a generated pair."""
    problems = ["job object: %s" % problem for problem in validate_job_object(job)]
    if job.get("error"):
        problems.append("error: %s" % job["error"])
    for field in _FIELDS:
        if job.get(field) != expected[field]:
            problems.append("%s is %r, expected %r" % (field, job.get(field), expected[field]))
    if job.get("copying") or job.get("rearranging"):
        problems.extend(certify_witness(job.get("counter_example_xml"), tdx, schema))
    return problems


def certify_witness(xml: Optional[str], tdx: str, schema: str) -> List[str]:
    """Def. 2.2/3.1 on the shipped counter-example."""
    if not xml:
        return ["unsafe verdict without counter_example_xml"]
    transducer, dtd = load_transducer(tdx), load_schema(schema)
    witness = make_value_unique(xml_to_tree(xml))
    problems = []
    if not dtd.is_valid(witness):
        problems.append("counter-example is not valid for the schema")
    if is_text_preserving_on(transducer, witness):
        problems.append("counter-example does not violate Def. 2.2")
    if not (is_copying_on(transducer, witness) or is_rearranging_on(transducer, witness)):
        problems.append("counter-example neither copies nor rearranges (Def. 3.1)")
    return problems


def oracle_pair(tdx: str, schema: str, protect: List[str], expected: Dict[str, Any]) -> List[str]:
    """The bounded oracle must see exactly the expected behaviour."""
    transducer = load_transducer(tdx)
    nta = dtd_to_nta(load_schema(schema))
    verdict = bounded_oracle(transducer, nta, max_size=PAIR_ORACLE_SIZE, max_count=None)
    problems = []
    for field in ("copying", "rearranging"):
        if getattr(verdict, field) != expected[field]:
            problems.append("bounded oracle: %s is %r" % (field, getattr(verdict, field)))
    deleted = [label for label in protect if _deletes_below(transducer, nta, label)]
    if deleted != list(expected["protected_deletions"]):
        problems.append("bounded oracle: protected deletions %r" % deleted)
    return problems


def _deletes_below(transducer: Any, nta: Any, label: str) -> bool:
    """Some small document loses a text value found below ``label``."""
    for tree in enumerate_trees(nta, PAIR_ORACLE_SIZE):
        unique = make_value_unique(tree)
        kept = set(output_text_values(transducer.apply(unique)))
        for node in unique.nodes():
            if unique.label_at(node) == label and any(
                value not in kept for value in text_values(unique.subtree(node))
            ):
                return True
    return False


def oracle_exptime(transducer: Any, schema: Any, output: Any, expected: bool) -> List[str]:
    """Brute force over small inputs for one exptime instance."""
    if output is None:
        verdict = bounded_oracle(transducer, schema, max_size=EXPTIME_ORACLE_SIZE, max_count=None)
        if verdict.text_preserving != expected:
            return ["bounded oracle: text_preserving is %r" % verdict.text_preserving]
        return []
    well_typed = True
    for tree in enumerate_trees(schema, EXPTIME_ORACLE_SIZE):
        result = transducer.apply(tree)
        if not (len(result) == 1 and output.is_valid(result[0])):
            well_typed = False
            break
    if well_typed != expected:
        return ["enumerated outputs: well-typed is %r" % well_typed]
    return []
