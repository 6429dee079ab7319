"""The diskpack benchmark: workloads, tracing and metrics."""
