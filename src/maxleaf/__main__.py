"""Run the command-line front end: python -m maxleaf COMMAND ..."""

from .cli import run

if __name__ == "__main__":
    run()
