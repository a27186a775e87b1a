#!/bin/sh
# crash_recovery.sh — end-to-end kill -9 recovery check.
#
# Provisions a real deployment (key manager + key-store reed-server +
# data reed-server on disk backends), uploads a corpus with known
# duplicate content, snapshots the dedup accounting from the admin
# endpoint, then SIGKILLs both storage servers mid-flight and restarts
# them on the same directories. The run fails unless:
#
#   - every pre-kill dedup metric (unique chunks, containers, savings
#     ratio, ref inflation, logical/physical bytes, put counters) is
#     bit-identical after recovery;
#   - every acknowledged upload downloads byte-identical;
#   - a second SIGKILL in the middle of an upload still leaves the
#     server functional: old files download, new uploads land;
#   - a file acknowledged while its chunks sit only in the data
#     server's open container (no seal during its upload) downloads
#     byte-identical after a SIGKILL of that server alone.
#
# Needs: go, curl, python3.
set -eu

DATA_ADDR=${DATA_ADDR:-127.0.0.1:19220}
KEYSTORE_ADDR=${KEYSTORE_ADDR:-127.0.0.1:19221}
KM_ADDR=${KM_ADDR:-127.0.0.1:19222}
DATA_ADMIN=${DATA_ADMIN:-127.0.0.1:19230}
KEYSTORE_ADMIN=${KEYSTORE_ADMIN:-127.0.0.1:19231}
KM_ADMIN=${KM_ADMIN:-127.0.0.1:19232}

WORK=$(mktemp -d)
BIN=$WORK/bin
STATE=$WORK/state
DATA_DIR=$WORK/data
KEYSTORE_DIR=$WORK/keystore
CORPUS=$WORK/corpus
OUT=$WORK/restored
mkdir -p "$BIN" "$CORPUS" "$OUT"

DATA_PID=
KEYSTORE_PID=
KM_PID=

cleanup() {
    for pid in "$DATA_PID" "$KEYSTORE_PID" "$KM_PID"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

wait_healthz() { # addr
    i=0
    until curl -fsS -o /dev/null "http://$1/healthz" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && { echo "server on $1 never became healthy" >&2; exit 1; }
        sleep 0.1
    done
}

start_storage() {
    "$BIN/reed-server" -listen "$DATA_ADDR" -backend "disk://$DATA_DIR" -admin "$DATA_ADMIN" &
    DATA_PID=$!
    "$BIN/reed-server" -listen "$KEYSTORE_ADDR" -backend "disk://$KEYSTORE_DIR" -admin "$KEYSTORE_ADMIN" &
    KEYSTORE_PID=$!
    wait_healthz "$DATA_ADMIN"
    wait_healthz "$KEYSTORE_ADMIN"
}

# snapshot_metrics prints the recoverable dedup accounting of one
# server as sorted key=value lines, so recovery can be checked with a
# plain diff.
snapshot_metrics() { # admin-addr
    curl -fsS "http://$1/metrics" | python3 -c '
import json, sys
s = json.load(sys.stdin)
g, c = s.get("gauges", {}), s.get("counters", {})
for k in ("dedup_unique_chunk_count", "dedup_container_count",
          "dedup_savings_ratio", "dedup_ref_inflation",
          "dedup_logical_bytes", "dedup_physical_bytes"):
    print(f"{k}={g.get(k)!r}")
for k in ("dedup_total_puts", "dedup_deduped_puts",
          "dedup_gc_freed_chunks", "dedup_gc_reclaimed_bytes"):
    print(f"{k}={c.get(k)!r}")
'
}

# counter prints one counter from a server's admin metrics.
counter() { # admin-addr name
    curl -fsS "http://$1/metrics" | python3 -c '
import json, sys
print(json.load(sys.stdin).get("counters", {}).get(sys.argv[1], 0))
' "$2"
}

client() { # subcommand [args...]
    sub=$1; shift
    "$BIN/reed-client" "$sub" -state "$STATE" -user alice \
        -servers "$DATA_ADDR" -keystore "$KEYSTORE_ADDR" -km "$KM_ADDR" "$@"
}

echo "building binaries..."
go build -o "$BIN/reed-server" ./cmd/reed-server
go build -o "$BIN/reed-client" ./cmd/reed-client
go build -o "$BIN/reed-keymanager" ./cmd/reed-keymanager

echo "provisioning authority state..."
"$BIN/reed-client" init-authority -state "$STATE"
"$BIN/reed-client" issue -state "$STATE" -user alice
"$BIN/reed-client" publish -state "$STATE" -users alice

echo "starting key manager + storage servers (disk backends)..."
"$BIN/reed-keymanager" -listen "$KM_ADDR" -bits 1024 -admin "$KM_ADMIN" &
KM_PID=$!
start_storage
wait_healthz "$KM_ADMIN"

echo "uploading corpus (file-b duplicates file-a's content)..."
head -c 300000 /dev/urandom >"$CORPUS/file-a"
cp "$CORPUS/file-a" "$CORPUS/file-b"
head -c 150000 /dev/urandom >"$CORPUS/file-c"
for f in file-a file-b file-c; do
    client upload -file "$CORPUS/$f" -as "/$f" -policy alice
done

echo "snapshotting dedup accounting before the crash..."
snapshot_metrics "$DATA_ADMIN" >"$WORK/data-pre.txt"
snapshot_metrics "$KEYSTORE_ADMIN" >"$WORK/keystore-pre.txt"
cat "$WORK/data-pre.txt"

dup=$(grep '^dedup_deduped_puts=' "$WORK/data-pre.txt" | cut -d= -f2)
[ "$dup" != "0" ] || { echo "corpus produced no duplicate chunks; dedup recovery untested" >&2; exit 1; }

echo "kill -9 both storage servers..."
kill -9 "$DATA_PID" "$KEYSTORE_PID"
wait "$DATA_PID" 2>/dev/null || true
wait "$KEYSTORE_PID" 2>/dev/null || true

echo "restarting on the same directories..."
start_storage

echo "comparing recovered accounting..."
snapshot_metrics "$DATA_ADMIN" >"$WORK/data-post.txt"
snapshot_metrics "$KEYSTORE_ADMIN" >"$WORK/keystore-post.txt"
diff -u "$WORK/data-pre.txt" "$WORK/data-post.txt" \
    || { echo "data server dedup accounting changed across kill -9" >&2; exit 1; }
diff -u "$WORK/keystore-pre.txt" "$WORK/keystore-post.txt" \
    || { echo "keystore dedup accounting changed across kill -9" >&2; exit 1; }

echo "downloading corpus after recovery..."
for f in file-a file-b file-c; do
    client download -path "/$f" -out "$OUT/$f"
    cmp "$CORPUS/$f" "$OUT/$f" || { echo "$f differs after recovery" >&2; exit 1; }
done

echo "phase B: kill -9 in the middle of an upload..."
head -c 8000000 /dev/urandom >"$CORPUS/file-d"
client upload -file "$CORPUS/file-d" -as "/file-d" -policy alice &
UPLOAD_PID=$!
sleep 0.3
kill -9 "$DATA_PID" "$KEYSTORE_PID"
wait "$DATA_PID" 2>/dev/null || true
wait "$KEYSTORE_PID" 2>/dev/null || true
if wait "$UPLOAD_PID" 2>/dev/null; then UPLOAD_OK=1; else UPLOAD_OK=0; fi

echo "restarting after mid-upload kill (upload acked: $UPLOAD_OK)..."
start_storage

echo "checking acknowledged data survived..."
for f in file-a file-b file-c; do
    client download -path "/$f" -out "$OUT/$f.2"
    cmp "$CORPUS/$f" "$OUT/$f.2" || { echo "$f differs after mid-upload crash" >&2; exit 1; }
done
if [ "$UPLOAD_OK" = 1 ]; then
    client download -path "/file-d" -out "$OUT/file-d"
    cmp "$CORPUS/file-d" "$OUT/file-d" || { echo "acked file-d differs after crash" >&2; exit 1; }
fi

echo "phase C: kill -9 the data server with acked data only in its open container..."
seals_before=$(counter "$DATA_ADMIN" dedup_seals_total)
head -c 200000 /dev/urandom >"$CORPUS/file-f"
client upload -file "$CORPUS/file-f" -as "/file-f" -policy alice
seals_after=$(counter "$DATA_ADMIN" dedup_seals_total)
[ "$seals_before" = "$seals_after" ] \
    || { echo "a container sealed during the small upload; file-f is not only in the open container" >&2; exit 1; }
kill -9 "$DATA_PID"
wait "$DATA_PID" 2>/dev/null || true
"$BIN/reed-server" -listen "$DATA_ADDR" -backend "disk://$DATA_DIR" -admin "$DATA_ADMIN" &
DATA_PID=$!
wait_healthz "$DATA_ADMIN"
client download -path "/file-f" -out "$OUT/file-f"
cmp "$CORPUS/file-f" "$OUT/file-f" || { echo "file-f differs after kill -9 with only an open container" >&2; exit 1; }

echo "checking the recovered server accepts new work..."
head -c 100000 /dev/urandom >"$CORPUS/file-e"
client upload -file "$CORPUS/file-e" -as "/file-e" -policy alice
client download -path "/file-e" -out "$OUT/file-e"
cmp "$CORPUS/file-e" "$OUT/file-e" || { echo "file-e round trip failed" >&2; exit 1; }

echo "crash recovery: OK"
