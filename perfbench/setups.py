"""What each workload builds once and its requests reuse.

This module imports only quatbox, so a fresh interpreter that runs
`setup_probe.py` times the package import plus these builds and nothing of
the harness.
"""

from __future__ import annotations

#: noise level of the noisy box in vandam-verify
NOISE = 0.85


def build(workload: str) -> dict:
    import quatbox

    if workload == "cli-paper":
        # each request builds its own boxes inside quatbox.cli.main; only the
        # module (and argparse behind it) is shared
        import quatbox.cli  # noqa: F401
    elif workload == "vandam-verify":
        # the CHSH-optimal deterministic pair, as the CLI's "classical"
        # strategy picks it; its per-cell win rates are 1, 1, 1 and 0
        _, (f_alice, f_bob) = quatbox.lhv_optimum()
        return {
            "ideal": quatbox.ideal_pr_box(),
            "quaternionic": quatbox.quaternionic_box(),
            f"noisy:{NOISE}": quatbox.noisy_box(quatbox.ideal_pr_box(), NOISE),
            "classical": quatbox.classical_box(f_alice, f_bob),
        }
    elif workload != "register-scale":
        raise ValueError(f"unknown workload {workload!r}")
    # register-scale shares nothing: its gates are seeded inputs the harness builds
    return {}
