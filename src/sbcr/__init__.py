"""Search-based merge conflict resolution toolkit.

Resolves git merge conflicts by hill-climbing over partial-order-constrained
interleavings of the conflicting versions' lines, and ships the surrounding
apparatus: conflict file parsing, dataset management, trivial and remote
resolvers, a rule-based hybrid router, benchmarking, and paired statistics.
"""
