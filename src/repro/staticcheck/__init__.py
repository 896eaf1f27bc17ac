"""Static protocol analysis (``repro lint``) — no exploration needed.

The analyzer approximates, in milliseconds and without building any
LTS, the lock-discipline and vacuity mistakes the paper's model
checking found the slow way: lockset dataflow over the thread phase
graph of the rule table (:mod:`~repro.staticcheck.lockset`) and a
cross-check of formula labels against the labels the rules emit
(:mod:`~repro.staticcheck.labelcheck`); :mod:`~repro.staticcheck.analyzer`
runs both.

It also certifies reductions (``repro lint --certify``, and in-process
under ``--reduce``): a symmetry + independence analysis
(:mod:`~repro.staticcheck.symmetry`) whose
:class:`~repro.staticcheck.certificates.ReductionCertificate` the
exploration backends validate before they quotient by processor/thread
permutations or prune commuting interleavings.

The package imports none of its modules: a caller imports the one it
needs, so ``--reduce`` does not load the lint.
"""
