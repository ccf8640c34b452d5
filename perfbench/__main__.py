"""``python -m perfbench {run,compare}`` — see perfbench/README.md."""

import os


def _pin_environment() -> None:
    """One BLAS thread and no ``REPRO_*`` knob, before numpy is imported:
    the engine reads both at import or construction time."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


if __name__ == "__main__":
    _pin_environment()
    from .cli import main

    raise SystemExit(main())
