"""`python -m dezawl` and the installed `dezawl` command."""

import gc
import sys

from .cli import main


def run() -> None:
    """Exit with main()'s code. Freezing every object into the collector's
    permanent generation first spares the interpreter's final collections
    the objects that numpy and the interpreter hold; unlike os._exit, this
    still runs atexit handlers and flushes stdio."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
