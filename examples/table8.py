#!/usr/bin/env python
"""Regenerate the paper's Table 8: LTS sizes and requirements checked.

The paper generated LTSs for three configurations on a CWI cluster and
reports states, transitions, and which requirements were checked:

    Config.  states       transitions   Req. checked
    1        65,234       360,162       1, 2, 3, 4
    2        5,424,848    40,476,069    1, 2, 3, 4
    3        36,371,052   290,181,444   1, 2

Our model is smaller per configuration (less interleaving granularity
than the 1800-line muCRL specification), but the *shape* is preserved:
sizes grow by orders of magnitude from configuration 1 to 3, and the
largest configuration is only checked for requirements 1 and 2 (as in
the paper). Pass ``--rounds N`` to scale thread workloads, ``--cyclic``
for the paper's recursive threads.

``--cyclic`` regenerates all three rows. Unreduced, the cyclic
configuration 3 does not fit an 8 GiB machine (more than 40 M states,
still growing), so that row is decided exactly on its certified
symmetry quotient and labelled ``3 (certified quotient)``: its counts
are quotient counts, not concrete ones.

Run:  python examples/table8.py [--rounds 2] [--cyclic]
"""

import argparse

from repro.analysis.experiments import run_table8
from repro.analysis.reporting import Table

PAPER = {
    "1": (65_234, 360_162, "1, 2, 3, 4"),
    "2": (5_424_848, 40_476_069, "1, 2, 3, 4"),
    "3": (36_371_052, 290_181_444, "1, 2"),
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=2,
                    help="write+flush rounds per thread (default 2)")
    ap.add_argument("--cyclic", action="store_true",
                    help="cyclic threads as in the paper's muCRL spec")
    args = ap.parse_args()
    rounds = None if args.cyclic else args.rounds

    table = Table(
        f"Table 8 reproduction (fixed protocol, rounds={'inf' if rounds is None else rounds})",
        ["config", "states", "transitions", "req_checked", "all_hold",
         "seconds", "paper_states", "paper_transitions", "paper_req"],
    )
    for row in run_table8(rounds=rounds):
        ps, pt, pr = PAPER[row.config.split()[0]]
        table.add(**row.as_dict(), paper_states=ps, paper_transitions=pt,
                  paper_req=pr)
    print(table.render())


if __name__ == "__main__":
    main()
