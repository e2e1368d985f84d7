package persist

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzReplayFile feeds arbitrary bytes to ReplayFile as a segment. Replay
// must not panic, must not allocate more than a small multiple of the file
// size whatever a length field claims, and must report a tear such that the
// file truncated there replays clean with the same record count. The
// checked-in corpus covers a clean segment, a partial header, a partial
// payload, a CRC flip, a length of 2^32-1, a length at the frame limit and
// a length one byte past EOF.
func FuzzReplayFile(f *testing.F) {
	// Decoding a record allocates a few times its payload (the Record
	// structs, base64 partition data); a fixed slack covers the small ones.
	const allocSlack = 64 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal-000001.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		count := func(Record) error { return nil }

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		n, torn, err := ReplayFile(path, count, false)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > 8*uint64(len(data))+allocSlack {
			t.Fatalf("replay of a %d-byte file allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return // an intact frame whose payload is not a record
		}
		if st, serr := os.Stat(path); serr != nil || st.Size() != int64(len(data)) {
			t.Fatalf("non-truncating replay changed the file (err=%v)", serr)
		}

		n2, torn2, err := ReplayFile(path, count, true)
		if err != nil || n2 != n || torn2 != torn {
			t.Fatalf("truncating replay: %d records torn=%v err=%v; want %d torn=%v", n2, torn2, err, n, torn)
		}
		n3, torn3, err := ReplayFile(path, count, false)
		if err != nil || n3 != n || torn3 {
			t.Fatalf("after truncation: %d records torn=%v err=%v; want %d clean", n3, torn3, err, n)
		}
	})
}
