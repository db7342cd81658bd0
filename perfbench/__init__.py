"""The repository benchmark: seeded workloads, end-to-end metrics and
per-layer traces for the batch pipeline, the online service and the
sharded HTTP tier.  Run it with ``python3 perfbench/run.py --help``."""
