"""The one CLI entry point: ``eprsim ...`` and ``python -m eprsim ...``."""

import os
import sys


def main() -> int:
    # Forced, not set only when absent: src/eprsim makes no BLAS or LAPACK call
    # (no @, dot, matmul, einsum, tensordot or linalg; np.fft is pocketfft), so
    # the thread count cannot change an output byte, and the pool OpenBLAS would
    # start is pure start-up cost. OpenBLAS reads this variable before
    # OMP_NUM_THREADS, once, when numpy is first imported: hence cli loads after.
    # TestStartup.test_source_makes_no_blas_call in the tests guards the premise.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
