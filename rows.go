package restore

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/types"
)

// ReadOutput reads the tuples of one requested output of a Result,
// following aliases.
func (s *System) ReadOutput(res *Result, requested string) ([]types.Tuple, error) {
	actual, ok := res.Outputs[requested]
	if !ok {
		return nil, fmt.Errorf("restore: %q is not an output of this query", requested)
	}
	return s.fs.ReadAll(actual)
}

// ReadOutputTSV reads an output as sorted tab-separated lines — convenient
// for comparisons and examples. The lines are ReadOutputLines' lines, held
// in one string: each line is a substring of it.
func (s *System) ReadOutputTSV(res *Result, requested string) ([]string, error) {
	var out []string
	err := s.ReadOutputLines(res, requested, func(lines [][]byte) error {
		size := 0
		for _, l := range lines {
			size += len(l)
		}
		var text strings.Builder
		text.Grow(size)
		for _, l := range lines {
			text.Write(l)
		}
		all := text.String()
		out = make([]string, len(lines))
		for i, l := range lines {
			out[i], all = all[:len(l)], all[len(l):]
		}
		return nil
	})
	return out, err
}

// ReadOutputLines passes fn one requested output's rows as FormatTSV lines
// in bytewise order: ReadOutputTSV's lines, without a string per line. Each
// partition's committed bytes are read once (FS.ReadPartitionRaw, charged
// like any read) and rendered by types.AppendRecordsTSV into one pooled
// arena, where the lines are sorted. The lines alias that arena: they are
// valid only until fn returns.
func (s *System) ReadOutputLines(res *Result, requested string, fn func(lines [][]byte) error) error {
	actual, ok := res.Outputs[requested]
	if !ok {
		return fmt.Errorf("restore: %q is not an output of this query", requested)
	}
	n, err := s.fs.Partitions(actual)
	if err != nil {
		return err
	}
	a := rowArenas.Get().(*rowArena)
	defer a.release()
	for i := 0; i < n; i++ {
		data, err := s.fs.ReadPartitionRaw(actual, i)
		if err != nil {
			return err
		}
		// A row's text is about as long as its encoding: size for that
		// up front instead of doubling through it.
		a.text = slices.Grow(a.text, len(data))
		if a.text, a.ends, err = types.AppendRecordsTSV(a.text, a.ends, data); err != nil {
			return fmt.Errorf("restore: read %s partition %d: %w", actual, i, err)
		}
	}
	a.lines = slices.Grow(a.lines, len(a.ends))
	start := 0
	for _, end := range a.ends {
		a.lines = append(a.lines, a.text[start:end:end])
		start = end
	}
	slices.SortFunc(a.lines, bytes.Compare)
	return fn(a.lines)
}

// rowArena holds one output's rows while they are sorted: the text of every
// line in one buffer, each line's end offset in it, and the line slices.
// Arenas are pooled, so a repeat query reuses the buffers the last one grew
// instead of allocating its output's size again.
type rowArena struct {
	text  []byte
	ends  []int
	lines [][]byte
}

var rowArenas = sync.Pool{New: func() any { return new(rowArena) }}

// maxPooledRowText caps the text buffer an arena keeps in the pool, so one
// huge output does not stay resident after it is served.
const maxPooledRowText = 4 << 20

func (a *rowArena) release() {
	if cap(a.text) > maxPooledRowText {
		return
	}
	a.text, a.ends, a.lines = a.text[:0], a.ends[:0], a.lines[:0]
	rowArenas.Put(a)
}
