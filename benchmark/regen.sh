#!/bin/sh
# Regenerate the reference figures in benchmark/README.md: machine facts,
# then an untraced and a traced run of every workload.
# Run from the repository root:  sh benchmark/regen.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-30}
python3 benchmark/machine.py
for workload in paper_grid adult_variants wide_threaded; do
    for trace in 0 1; do
        echo "== $workload trace=$trace"
        python3 benchmark/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
