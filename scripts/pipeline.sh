#!/usr/bin/env sh
# Full seeded pipeline: scene -> embeddings -> alignment -> stylization ->
# renders and metric CSVs. Usage: scripts/pipeline.sh CONFIG OUT_DIR
set -e

CFG="$1"
OUT="$2"
if [ -z "$CFG" ] || [ -z "$OUT" ]; then
    echo "usage: $0 CONFIG OUT_DIR" >&2
    exit 2
fi
# this checkout's package comes first, whatever PYTHONPATH already holds
PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

python3 -m subflow.cli gen-scene --config "$CFG" --out "$OUT/scene.gscn"
python3 -m subflow.cli embed --config "$CFG" --scene "$OUT/scene.gscn" \
    --out-scene "$OUT/distilled.gscn" --out-decoder "$OUT/decoder.prms"
python3 -m subflow.cli train-flow --config "$CFG" --out "$OUT/pipe"
python3 -m subflow.cli train-style --config "$CFG" --scene "$OUT/distilled.gscn" \
    --decoder "$OUT/decoder.prms" --pipeline "$OUT/pipe" --out "$OUT/styled"
python3 -m subflow.cli stylize --config "$CFG" --scene "$OUT/distilled.gscn" \
    --decoder "$OUT/styled/decoder.prms" --pipeline "$OUT/pipe" \
    --text "molten copper sunset" --out "$OUT/stylized.gscn"
python3 -m subflow.cli render --config "$CFG" --scene "$OUT/stylized.gscn" \
    --out "$OUT/views" --depth
python3 -m subflow.cli eval-align --config "$CFG" --pipeline "$OUT/pipe" \
    --out "$OUT/align.csv" > /dev/null
python3 -m subflow.cli eval-consistency --config "$CFG" --scene "$OUT/stylized.gscn" \
    --out "$OUT/consistency.csv" > /dev/null
echo "pipeline artifacts in $OUT"
