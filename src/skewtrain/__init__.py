"""Training and diagnosing small classifiers under long-tailed imbalance.

The package root exports nothing; import the module you need. The
modules are layered bottom-up:

- config: the experiment config's dataclasses, their checks, the strict
  parser and the hash; it imports no other skewtrain module
- autodiff: a tape-based reverse-mode engine, kept as the gradient
  reference, and the finite-difference oracle
- models: MLP layer stacks for the classifier and the projector, their
  numpy forward and backward, checkpoints
- data: datasets, CSV io, curation, the balanced sampler, views
- losses: supervised and self-supervised loss terms
- optim: SGD/SAM optimizers with EMA
- diagnostics: evaluation and collapse diagnostics
- harness: presets and sweep axes, the training objective and loop,
  seeds, sweeps and ratio grids
- cli: the command-line front end
"""
