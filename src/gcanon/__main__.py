"""Entry point for ``python -m gcanon``."""

from .cli import main

if __name__ == "__main__":
    main()
