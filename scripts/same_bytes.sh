#!/usr/bin/env sh
# Compare the artifacts of two commits byte for byte. Each commit's tree is
# exported with `git archive`, so no untracked file or __pycache__ takes part.
# In each tree, scripts/pipeline.sh runs at every config in scripts/configs/
# of this checkout, then `stylize` styles the distilled scene from a --text,
# an --image and a --feat reference. Every file that differs, or exists on one
# side only, is printed; the exit code is 1 if there is one.
# Usage: scripts/same_bytes.sh REV [REV]   (the second REV defaults to HEAD)
set -e

if [ -z "$1" ]; then
    echo "usage: $0 REV [REV]" >&2
    exit 2
fi
REV_A="$1"
REV_B="${2:-HEAD}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
OPENBLAS_NUM_THREADS=1
export OPENBLAS_NUM_THREADS

# the reference image and rows for `stylize`, made by the tree's own encoders
write_refs() {  # TREE CONFIG OUT_DIR
    PYTHONPATH="$1/src" python3 - "$2" "$3" <<'EOF'
import sys
from subflow import config, rasterizer
from subflow.encoders import FeatureEncoders, export_features, procedural_texture
cfg = config.load_config(sys.argv[1])
size = cfg["camera.width"]
rasterizer.write_ppm(f"{sys.argv[2]}/ref.ppm", procedural_texture(cfg["seed"], 500, size))
encoders = FeatureEncoders(seed=cfg["seed"], clip_dim=cfg["clip_dim"], style_dim=cfg["style_dim"])
rows = encoders.encode_clip_like([procedural_texture(cfg["seed"], 600 + r, size) for r in range(4)])
export_features(f"{sys.argv[2]}/ref.feat", rows)
EOF
}

for side in a b; do
    if [ "$side" = a ]; then rev="$REV_A"; else rev="$REV_B"; fi
    tree="$TMP/$side/tree"
    mkdir -p "$tree"
    git -C "$ROOT" archive "$rev" | tar -x -C "$tree"
    for cfg in "$ROOT"/scripts/configs/*.cfg; do
        out="$TMP/$side/out/$(basename "$cfg" .cfg)"
        echo "$rev: $(basename "$cfg")" >&2
        sh "$tree/scripts/pipeline.sh" "$cfg" "$out" > /dev/null
        mkdir "$out/refs"
        write_refs "$tree" "$cfg" "$out/refs"
        for ref in "--text=amber glass rain" "--image=$out/refs/ref.ppm" \
                   "--feat=$out/refs/ref.feat"; do
            flag="${ref%%=*}"
            PYTHONPATH="$tree/src" python3 -m subflow.cli stylize --config "$cfg" \
                --scene "$out/distilled.gscn" --decoder "$out/styled/decoder.prms" \
                --pipeline "$out/pipe" "$flag" "${ref#*=}" \
                --out "$out/stylize_${flag#--}.gscn" > /dev/null
        done
    done
done

cd "$TMP"
differ=0
for rel in $( (cd a/out && find . -type f; cd ../../b/out && find . -type f) | sort -u); do
    if [ ! -f "a/out/$rel" ]; then
        echo "only at $REV_B: ${rel#./}"
    elif [ ! -f "b/out/$rel" ]; then
        echo "only at $REV_A: ${rel#./}"
    elif ! cmp -s "a/out/$rel" "b/out/$rel"; then
        echo "differs: ${rel#./}"
    else
        continue
    fi
    differ=1
done
count=$(cd a/out && find . -type f | wc -l)
if [ "$differ" = 0 ]; then
    echo "all $count files byte-identical ($REV_A vs $REV_B)"
fi
exit "$differ"
