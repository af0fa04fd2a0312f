#!/usr/bin/env bash
# Run every benchmark workload, untraced then traced, from the
# repository root: perfbench/run-all.sh [SEED] [SECONDS]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-25}"
cd "$(dirname "$0")/.."
for workload in crawl crawl-observed simulate serve; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
