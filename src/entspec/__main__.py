"""`python -m entspec`: the entspec command line."""

from .cli import main_entry

main_entry()
