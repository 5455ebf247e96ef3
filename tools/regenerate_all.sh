#!/usr/bin/env bash
# Regenerate everything: test suite, every paper artifact, all examples.
# Outputs land in test_output.txt, bench_output.txt, benchmarks/results/.
set -euo pipefail
cd "$(dirname "$0")/.."
# Run from the checkout, as CI does; no pip install needed.
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tests =="
pytest tests/ 2>&1 | tee test_output.txt | tail -1

echo "== benchmarks (paper artifacts + ablations + extensions) =="
pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt | tail -1

echo "== examples =="
for ex in examples/*.py; do
    echo "-- $ex"
    python "$ex" > /dev/null
done

echo "All artifacts regenerated; rows archived under benchmarks/results/."
