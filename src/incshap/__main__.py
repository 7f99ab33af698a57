"""Run the command-line interface as ``python -m incshap``."""

from .cli import main

if __name__ == "__main__":
    main()
