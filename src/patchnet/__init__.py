"""Patch classification toolkit: ingest exported commits, preprocess
messages and code, train a hierarchical convolutional classifier, and
evaluate against the keyword baseline.

Import each name from the module that owns it (for example
`from patchnet.trainer import train`); the package itself imports none,
so a CLI process loads only what its command runs.
"""

__version__ = "0.1.0"
