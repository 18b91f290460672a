"""`python -m mipoly`: the same command line as the `mipoly` script."""

from .cli import main

raise SystemExit(main())
