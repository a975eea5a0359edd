#!/bin/sh
# Regenerates infer256.rack, the checkpoint of the infer256 workload: the
# default `ranet gen` / `ranet train` recipe (200 scenes, 30 epochs, seed 0)
# on one BLAS thread.  About 3-4 minutes on one core.  From the repository root:
#   sh perfbench/checkpoint/infer256.rack.sh
set -e
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src
python3 -m ranet.cli gen --out .bench_build/corpus --seed 0
python3 -m ranet.cli train --data .bench_build/corpus --out perfbench/checkpoint/infer256.rack \
    --seed 0 --single-thread
