"""Region-aware feedback crowd counting at desk scale.

The pieces: immutable raster/annotation types with bit-exact I/O (core),
a finite-difference-verifiable reverse-mode tape (autodiff), the
column-relevance enhancement block (region_aware), the Bayesian
point-supervision loss (bayes), a miniature two-pass network (network),
a deterministic scene generator (datagen), the training harness
(training), count metrics (evaluate), and a CLI (cli).
"""
