"""The repository's benchmark: one harness, five workloads (see bench/README.md)."""
