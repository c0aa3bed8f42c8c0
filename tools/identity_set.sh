#!/usr/bin/env bash
# Run the byte-identity command set with this checkout's package and write
# every output, plus the commands' stderr, under OUT.
#
#   tools/identity_set.sh OUT
#
# The set is generate, train-base, continual for every strategy, sweep-memory
# and full-training at --seeds 2, then three one-seed continual runs, which
# evaluate in a forked process where a core is spare, and last a second, small
# corpus at another seed and the smallest image size, with a base and two dm
# runs on it whose memories are smaller than an input batch, and a last,
# generate-only corpus with odd counts, a task of one sample that has no
# positive, and one sample per evaluation task.
#
# A change that claims the same results runs this on the old and the new
# tree and compares the two outputs with `diff -r OLD_OUT NEW_OUT`.
set -euo pipefail
out=${1:?usage: tools/identity_set.sh OUT}
src=$(cd "$(dirname "$0")/../src" && pwd)
mkdir -p "$out"
cd "$out"  # relative paths, so the progress lines do not name OUT
export PYTHONPATH=$src OPENBLAS_NUM_THREADS=1

run() { python3 -m dynmem.cli "$@" 2>>stderr.txt; }

run generate --out corpus
runs=(--corpus corpus --out runs --seeds 2)
run train-base "${runs[@]}"
for strategy in naive ewc ewc-fbn; do
    run continual "${runs[@]}" --strategy "$strategy"
done
for memory in 32 160; do
    run continual "${runs[@]}" --strategy dm --memory "$memory"
done
run continual --corpus corpus --out refresh --base runs --seeds 2 --strategy dm \
    --memory 32 --recompute-signatures
run sweep-memory --corpus corpus --out sweep --base runs --seeds 2
run full-training "${runs[@]}"
one=(--corpus corpus --base runs --seeds 1)
run continual "${one[@]}" --out one_ewc_fbn --strategy ewc-fbn
run continual "${one[@]}" --out one_dm160 --strategy dm --memory 160
run continual "${one[@]}" --out one_dm32_refresh --strategy dm --memory 32 \
    --recompute-signatures
run generate --out corpus15 --seed 7 --image-size 15 --base-n 31 --cont-a 21 --cont-b 13 \
    --cont-c 45 --eval-n 9
small=(--corpus corpus15 --base runs15)
run train-base --corpus corpus15 --out runs15 --seeds 2
# a memory of 4 that each input batch of 8 overfills
run continual "${small[@]}" --out small_dm4 --seeds 2 --strategy dm --memory 4
run continual "${small[@]}" --out small_dm6_refresh --seeds 1 --strategy dm --memory 6 \
    --batch 3 --train-batch 5 --recompute-signatures
run generate --out corpus_edge --seed 3 --image-size 24 --base-n 1 --cont-a 3 --cont-b 5 \
    --cont-c 1 --eval-n 1
