#!/usr/bin/env python3
"""Finite-difference checks of the balancing-flow derivative identities."""

import sys

from framescale import run_diagnostics


def main():
    output = run_diagnostics(master_seed=0, h=1e-6)
    width = max(len(label) for label, *_ in output.rows)
    for label, check, analytic, fd, rel, ok in output.rows:
        flag = "ok " if ok else "BAD"
        print(f"{flag} {label:<{width}} {check:<24} analytic {analytic:+.6e} "
              f"fd {fd:+.6e} rel {rel:.2e}")
    print(f"max rel error {output.max_rel_error:.3e} "
          f"-> {'PASS' if output.passed else 'FAIL'}")
    return 0 if output.passed else 1


if __name__ == "__main__":
    sys.exit(main())
