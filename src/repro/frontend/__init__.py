"""Mini-C frontend (the HAVOC stand-in): lexer, parser, and lowering.

Also home to the multi-file ingester (`repro.frontend.ingest`): the
incremental CI driver hands it a directory of ``.bpl``/``.c`` sources
and gets back one merged, typechecked program with per-procedure file
provenance.
"""

from .cparser import CParseError, parse_c
from .ingest import (IngestedRepo, IngestError, discover_sources,
                     ingest_directory, merge_programs)
from .lower import LowerError, compile_c, lower_unit

__all__ = ["CParseError", "parse_c", "LowerError", "compile_c", "lower_unit",
           "IngestedRepo", "IngestError", "discover_sources",
           "ingest_directory", "merge_programs"]
