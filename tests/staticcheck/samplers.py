"""The sampled self-tests ``certify`` ran before it proved equivariance
and the slice on the rule table: test oracles now.

:func:`equivariance_findings` holds the scalar relation
(``JackalModel.successors``) and the codec to the permutation action on
a breadth-first sample of states; :func:`selftest_findings` holds the
scalar relation to the slice projection the same way. Both look only
near the initial state, where the proof in
:mod:`repro.staticcheck.symmetry` and :mod:`repro.staticcheck.slicing`
covers every row; ``tests/staticcheck/test_certify.py`` checks that the
two agree on the shipped specs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from repro.staticcheck.findings import Finding, Severity
from repro.staticcheck.symmetry import Permutation

#: default number of sampled states for the equivariance self-test
DEFAULT_SELFTEST_STATES = 200


def _sample_states(model: Any, limit: int) -> list[Any]:
    """Up to ``limit`` states by plain breadth-first walk over
    ``model.successors``. Deliberately *not* the exploration machinery:
    static analysis never builds an LTS, it samples a bounded prefix."""
    init = model.initial_state()
    seen = {init}
    frontier = [init]
    out = [init]
    while frontier and len(out) < limit:
        nxt = []
        for s in frontier:
            if len(s) != 8:
                continue
            for _lbl, ns in model.successors(s):
                if ns not in seen:
                    seen.add(ns)
                    out.append(ns)
                    nxt.append(ns)
                    if len(out) >= limit:
                        return out
        frontier = nxt
    return out


def equivariance_findings(
    model: Any,
    group: Sequence[Permutation],
    *,
    max_states: int = DEFAULT_SELFTEST_STATES,
    max_findings: int = 3,
) -> list[Finding]:
    """JKL302 counterexamples to layout/successor equivariance."""
    findings: list[Finding] = []
    perms = [g for g in group if not g.is_identity]
    if not perms:
        return findings
    codec = model.codec()
    for state in _sample_states(model, max_states):
        for perm in perms:
            permuted = perm.apply(state)
            if codec.decode(codec.encode(permuted)) != permuted:
                findings.append(
                    Finding(
                        "JKL302",
                        Severity.ERROR,
                        "model/codec",
                        "decode(encode(permute(s))) != permute(s) for "
                        f"pid_map={list(perm.pid_map)}: the packed layout "
                        "does not respect the permutation action",
                        data={"permutation": perm.as_dict()},
                    )
                )
            expected = sorted(
                (perm.apply_label(lbl), perm.apply(ns))
                for lbl, ns in model.successors(state)
            )
            actual = sorted(model.successors(permuted))
            if expected != actual:
                exp_labels = [lbl for lbl, _ in expected]
                act_labels = [lbl for lbl, _ in actual]
                diff = sorted(
                    set(exp_labels).symmetric_difference(act_labels)
                ) or ["<same labels, different targets>"]
                findings.append(
                    Finding(
                        "JKL302",
                        Severity.ERROR,
                        "model/successors",
                        "successor relation is not equivariant under "
                        f"pid_map={list(perm.pid_map)} "
                        f"tid_map={list(perm.tid_map)}: permuting and "
                        "stepping disagree at a sampled state "
                        f"(mismatched labels: {diff[:4]})",
                        data={
                            "permutation": perm.as_dict(),
                            "mismatched_labels": diff[:4],
                        },
                    )
                )
            if len(findings) >= max_findings:
                return findings
    return findings


def selftest_findings(
    model: object,
    dropped: Iterable[str],
    *,
    max_states: int = 200,
    max_findings: int = 3,
) -> list[Finding]:
    """JKL403 congruence counterexamples on a bounded state sample.

    For sampled ``s``, stepping then projecting must equal projecting
    then stepping, label-for-label — the dynamic witness that the
    cone read off the rule table holds for the scalar relation too.
    Samples via the model's
    successor function only (never the exploration machinery).
    """
    dropped = frozenset(dropped)
    if not dropped:
        return []
    codec = model.codec()  # type: ignore[attr-defined]
    project = codec.projector(dropped)
    findings: list[Finding] = []
    for state in _sample_states(model, max_states):
        if len(state) != 8:
            continue
        projected = project(state)
        expected = sorted(
            (lbl, codec.encode(project(ns)))
            for lbl, ns in model.successors(state)  # type: ignore[attr-defined]
        )
        actual = sorted(
            (lbl, codec.encode(project(ns)))
            for lbl, ns in model.successors(projected)  # type: ignore[attr-defined]
        )
        if expected != actual:
            exp_labels = [lbl for lbl, _ in expected]
            act_labels = [lbl for lbl, _ in actual]
            diff = sorted(
                set(exp_labels).symmetric_difference(act_labels)
            ) or ["<same labels, different targets>"]
            findings.append(
                Finding(
                    "JKL403",
                    Severity.ERROR,
                    "slice/congruence",
                    "slice projection is not a congruence: stepping a "
                    "projected state and projecting the successors "
                    f"disagree at a sampled state (dropped="
                    f"{sorted(dropped)}, mismatched labels: {diff[:4]})",
                    data={
                        "dropped": sorted(dropped),
                        "mismatched_labels": diff[:4],
                    },
                )
            )
            if len(findings) >= max_findings:
                return findings
    return findings
