"""Machine-readable reports for the command-line interface.

Every JSON report carries ``schemaVersion`` and ``command`` and validates
against the published schema (``report_schema.json`` next to this module).
Text rendering is a deterministic ``key: value`` layout of the same content.
"""

from __future__ import annotations

from collections.abc import Mapping

from .model import instance_lines

# The decision types in annotations are those of ``entail``, ``oid_equiv`` and
# ``oracle``; they are not imported, so that rendering loads no decider.

SCHEMA_VERSION = 1


def load_schema() -> dict:
    """The published JSON schema for CLI reports."""
    import json
    from importlib import resources

    text = resources.files(__package__).joinpath("report_schema.json").read_text()
    return json.loads(text)


def mapping_names(m: Mapping) -> dict[str, str]:
    return {v.name: w.name for v, w in sorted(m.items(), key=lambda kv: kv[0].name)}


def names(variables) -> list[str]:
    return sorted(v.name for v in variables)


def artifact_report(command: str, **fields) -> dict:
    """The common report prefix, then the command's own fields in order."""
    return {"schemaVersion": SCHEMA_VERSION, "command": command, **fields}


def equiv_report(decision: EquivDecision) -> dict:
    report = artifact_report(
        "check-oid-equiv",
        verdict="equivalent" if decision.equivalent else "not-equivalent",
    )
    if decision.witness is not None:
        w = decision.witness
        report["witness"] = {
            "pi": mapping_names(w.pi),
            "hForward": mapping_names(w.h_forward),
            "hBackward": mapping_names(w.h_backward),
            "mvForward": mapping_names(w.mv_forward),
            "mvBackward": mapping_names(w.mv_backward),
        }
    if decision.refutation is not None:
        r = decision.refutation
        report["refutation"] = {
            "stage": r.stage,
            "detail": r.detail,
            "counterexample": (
                instance_lines(r.counterexample) if r.counterexample is not None else None
            ),
        }
    return report


def _entail_fields(decision: EntailDecision) -> dict:
    fields: dict = {"verdict": "entails" if decision.entails else "not-entails"}
    if decision.witness is not None:
        w = decision.witness
        fields["witness"] = {
            "h": mapping_names(w.h),
            "yH": names(w.y_h),
            "jd": {"left": names(w.jd.left), "right": names(w.jd.right)},
            "jdCertificate": mapping_names(w.jd_certificate),
        }
    if decision.counterexample is not None:
        source, target = decision.counterexample
        fields["counterexample"] = {
            "source": instance_lines(source),
            "target": instance_lines(target),
        }
    if decision.note:
        fields["note"] = decision.note
    return fields


def entail_report(decision: EntailDecision) -> dict:
    return artifact_report("check-entails", **_entail_fields(decision))


def logical_equiv_report(both: LogicalEquivalence, oid_equivalent: bool) -> dict:
    return artifact_report(
        "check-logical-equiv",
        **_entail_fields(both.forward),
        backward=_entail_fields(both.backward),
        logicallyEquivalent=both.equivalent,
        oidEquivalent=oid_equivalent,
    )


def satisfies_report(result: SatisfactionReport) -> dict:
    report = artifact_report("satisfies", satisfied=result.satisfied)
    if result.witness_table is not None:
        report["witnessTable"] = {
            ",".join(c.name for c in key): value.name
            for key, value in sorted(
                result.witness_table.items(), key=lambda kv: tuple(c.name for c in kv[0])
            )
        }
    if result.violating_group is not None:
        key, requirements = result.violating_group
        report["violatingGroup"] = {
            "creation": [c.name for c in key],
            "requirements": [
                {
                    "distinguished": [c.name for c in dist],
                    "candidates": [c.name for c in values],
                }
                for dist, values in requirements
            ],
        }
    return report


def render_json(report: dict) -> str:
    import json  # here, so that a text report loads no json

    return json.dumps(report, indent=2) + "\n"


def render_text(report: dict) -> str:
    """Deterministic ``key: value`` text rendering of a report dict."""
    lines: list[str] = []

    def emit(label: str, value, depth: int) -> None:
        pad = "  " * depth
        if isinstance(value, dict):
            if not value:
                lines.append(f"{pad}{label}: (empty)")
                return
            lines.append(f"{pad}{label}:")
            for k, v in value.items():
                emit(k, v, depth + 1)
        elif isinstance(value, list):
            if not value:
                lines.append(f"{pad}{label}: (none)")
                return
            lines.append(f"{pad}{label}:")
            for item in value:
                if isinstance(item, dict):
                    emit("-", item, depth + 1)
                else:
                    lines.append(f"{pad}  {item}")
        elif value is None:
            lines.append(f"{pad}{label}: none")
        elif isinstance(value, bool):
            lines.append(f"{pad}{label}: {'yes' if value else 'no'}")
        else:
            lines.append(f"{pad}{label}: {value}")

    for key, value in report.items():
        if key in ("schemaVersion", "command"):
            continue
        emit(key, value, 0)
    return "\n".join(lines) + "\n"
