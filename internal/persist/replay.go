package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ReplayFile reads the segment at path and calls apply for each intact
// record in order. A torn tail — a crash mid-append leaving a partial
// header, a partial payload, an implausible length (over the frame limit or
// past the end of the file), or a checksum mismatch — is detected and
// reported via torn=true. No length field can make replay allocate more
// than the file holds. With truncateTorn, the tail is
// also physically truncated off the segment so later appends continue from
// a clean record boundary; without it the file is left untouched. Callers
// pass truncateTorn only for the segment that was being appended at the
// crash (the final one) — a tear anywhere else is evidence of real
// corruption that must be preserved, not repaired away, or the fatal
// condition would vanish on the next restart and the records after the
// tear would silently apply over a hole.
//
// An apply error aborts the replay and is returned as err (the state dir is
// corrupt in a way framing cannot explain — e.g. a record referencing a
// file no earlier record created); torn stays false in that case.
func ReplayFile(path string, apply func(Record) error, truncateTorn bool) (records int, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("persist: replay %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("persist: replay %s: %w", path, err)
	}
	size := st.Size()

	var off int64 // offset of the record being read — the truncation point on a tear
	tear := func() (int, bool, error) {
		if !truncateTorn {
			return records, true, nil
		}
		if terr := f.Truncate(off); terr != nil {
			return records, true, fmt.Errorf("persist: truncate torn tail of %s at %d: %w", path, off, terr)
		}
		return records, true, nil
	}
	header := make([]byte, frameHeaderSize)
	var payload []byte
	for {
		n, rerr := io.ReadFull(f, header)
		if rerr == io.EOF {
			return records, false, nil // clean end
		}
		if rerr == io.ErrUnexpectedEOF {
			return tear() // partial header
		}
		if rerr != nil {
			return records, false, fmt.Errorf("persist: replay %s: %w", path, rerr)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if checkRecordSize(uint64(length)) != nil || int64(length) > size-off-frameHeaderSize {
			// A corrupt length field; everything from here on is garbage.
			return tear()
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, rerr := io.ReadFull(f, payload); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return tear() // partial payload
			}
			return records, false, fmt.Errorf("persist: replay %s: %w", path, rerr)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return tear() // bit rot or torn overwrite
		}
		var rec Record
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			// The checksum matched, so this is not a torn write; the format
			// itself is bad.
			return records, false, fmt.Errorf("persist: replay %s: record %d: %w", path, records, jerr)
		}
		if aerr := apply(rec); aerr != nil {
			return records, false, fmt.Errorf("persist: replay %s: record %d: %w", path, records, aerr)
		}
		records++
		off += int64(n) + int64(length)
	}
}
