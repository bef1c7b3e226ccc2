"""``python -m repro.kernels``: print the capability report."""

from repro.kernels.capability import main

if __name__ == "__main__":
    raise SystemExit(main())
