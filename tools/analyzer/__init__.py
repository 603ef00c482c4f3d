"""AST-level determinism & architecture analyzer for the PROCLUS repo.

Where tools/lint.py is a regex linter (fast, but blind to control flow),
this package checks the invariants the repo's bit-identity story actually
rests on at the AST level:

  rng-draw-invariance    no Rng draw on a conditionally executed path
  fp-accumulation-order  no reassociation-prone floating-point reductions
                         outside the blessed kernel layer
  consumer-lifecycle     ScanConsumer subclasses honor the commit-on-Merge
                         contract (block-keyed writes, no retained scratch
                         pointers)
  layer-dag              the include DAG common -> data -> distance/gen ->
                         core/clique/baselines -> eval/extensions
  status-flow            value()/deref on a Result only behind a
                         dominating ok() check

Two frontends produce the same normalized IR (see ir.py):

  clang     libclang Python bindings (pip install libclang==18.*); the
            frontend CI uses, pinned to the clang-tidy major.
  fallback  a pure-Python structural parser (microparse.py) covering the
            Google-style C++ subset this repo is written in, so the
            analyzer and its self-test run in trees without libclang
            (like this container). `--frontend clang` fails with an
            actionable error when the bindings are missing, mirroring the
            tidy/tsa presets.

Entry point: tools/analyzer/analyze.py (or `python3 tools/analyzer`).
"""
