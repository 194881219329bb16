"""``python -m twincsp ...`` runs the command-line interface."""

from .cli import main

main()
