"""Run the command-line interface: python -m quandlehom <command> ..."""

from .shell import main

if __name__ == "__main__":
    main()
