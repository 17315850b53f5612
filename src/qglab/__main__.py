"""``python -m qglab``: the command-line front end of ``qglab.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
