"""moediff benchmark: workloads, span tracing, metrics and output checks."""
