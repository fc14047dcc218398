package anomalia

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"anomalia/internal/motiontable"
)

// windowReport is a Report as a window record writes it: its dense
// motions are indices into the record's motion table. Class is the
// class's text.
type windowReport struct {
	Device     int    `json:"device"`
	Class      string `json:"class"`
	Rule       string `json:"rule"`
	MotionRefs []int  `json:"motion_refs,omitempty"`
	Cost       Cost   `json:"cost"`
}

// windowRecord is the layout of a window record: each distinct dense
// motion once, in Motions, in first-appearance order (reports in order,
// each report's motions in order). AppendJSON writes it field by field;
// UnmarshalJSON reads it.
type windowRecord struct {
	Reports    []windowReport `json:"reports"`
	Massive    []int          `json:"massive,omitempty"`
	Isolated   []int          `json:"isolated,omitempty"`
	Unresolved []int          `json:"unresolved,omitempty"`
	Motions    [][]int        `json:"motions,omitempty"`
	Dist       *DistStats     `json:"dist,omitempty"`
}

// recordScratch is the pooled scratch of one record encoding: the
// motion table, and MarshalJSON's byte buffer.
type recordScratch struct {
	table motiontable.Table
	buf   []byte
}

var recordPool = sync.Pool{New: func() any { return new(recordScratch) }}

// MarshalJSON writes the Outcome as a window record, the bytes
// AppendJSON appends. It encodes into pooled scratch and returns one
// copy of the record's final length.
func (o Outcome) MarshalJSON() ([]byte, error) {
	s := recordPool.Get().(*recordScratch)
	s.buf = o.appendRecord(s.buf[:0], &s.table)
	out := make([]byte, len(s.buf))
	copy(out, s.buf)
	s.table.Reset()
	recordPool.Put(s)
	return out, nil
}

// AppendJSON appends the Outcome's window record to dst and returns the
// extended buffer. Each distinct dense motion appears once, in a
// window-level "motions" table, and each report lists its DenseMotions
// as "motion_refs", indices into that table. The table holds the
// motions in first-appearance order, so the bytes depend only on the
// Outcome's value, not on which of its slices share memory. The bytes
// are those encoding/json writes for the record: compact, with strings
// escaped as json.Marshal escapes them.
func (o Outcome) AppendJSON(dst []byte) []byte {
	s := recordPool.Get().(*recordScratch)
	dst = o.appendRecord(dst, &s.table)
	s.table.Reset()
	recordPool.Put(s)
	return dst
}

// appendRecord appends o's window record, interning its motions in t.
func (o *Outcome) appendRecord(b []byte, t *motiontable.Table) []byte {
	b = append(b, `{"reports":`...)
	if o.Reports == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range o.Reports {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendReport(b, &o.Reports[i], t)
		}
		b = append(b, ']')
	}
	b = appendIDsField(b, `,"massive":`, o.Massive)
	b = appendIDsField(b, `,"isolated":`, o.Isolated)
	b = appendIDsField(b, `,"unresolved":`, o.Unresolved)
	if motions := t.Motions(); len(motions) > 0 {
		b = append(b, `,"motions":[`...)
		for i, m := range motions {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIDs(b, m)
		}
		b = append(b, ']')
	}
	if d := o.Dist; d != nil {
		b = append(b, `,"dist":{"messages":`...)
		b = strconv.AppendInt(b, int64(d.Messages), 10)
		b = append(b, `,"trajectories":`...)
		b = strconv.AppendInt(b, int64(d.Trajectories), 10)
		b = append(b, `,"view_size":`...)
		b = strconv.AppendInt(b, int64(d.ViewSize), 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendReport appends one report of a window record.
func appendReport(b []byte, r *Report, t *motiontable.Table) []byte {
	b = append(b, `{"device":`...)
	b = strconv.AppendInt(b, int64(r.Device), 10)
	b = append(b, `,"class":`...)
	b = appendString(b, r.Class.String())
	b = append(b, `,"rule":`...)
	b = appendString(b, r.Rule)
	if refs := t.Refs(r.DenseMotions); len(refs) > 0 {
		b = append(b, `,"motion_refs":`...)
		b = appendIDs(b, refs)
	}
	b = append(b, `,"cost":{"maximal_motions":`...)
	b = strconv.AppendInt(b, int64(r.Cost.MaximalMotions), 10)
	b = append(b, `,"dense_motions":`...)
	b = strconv.AppendInt(b, int64(r.Cost.DenseMotions), 10)
	b = append(b, `,"neighbors_scanned":`...)
	b = strconv.AppendInt(b, int64(r.Cost.NeighborsScanned), 10)
	b = append(b, `,"collections_tested":`...)
	b = strconv.AppendInt(b, int64(r.Cost.CollectionsTested), 10)
	return append(b, "}}"...)
}

// appendIDsField appends an omitempty id list: the field and its value,
// or nothing when ids is empty.
func appendIDsField(b []byte, field string, ids []int) []byte {
	if len(ids) == 0 {
		return b
	}
	return appendIDs(append(b, field...), ids)
}

// appendIDs appends ids as a JSON array; nil is null, as encoding/json
// writes a nil slice.
func appendIDs(b []byte, ids []int) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string escaped as json.Marshal
// escapes it: quote, backslash and control characters, the HTML
// characters <, > and &, U+2028 and U+2029, and each byte of invalid
// UTF-8 as U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// UnmarshalJSON reads a window record written by MarshalJSON. Reports
// with the same motion_refs share one DenseMotions slice, and every
// report shares the table's motions; treat them as read-only. A
// reference outside the table, or a report without a valid class, is an
// error wrapping ErrInvalidInput.
func (o *Outcome) UnmarshalJSON(data []byte) error {
	var rec windowRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return err
	}
	out := Outcome{
		Massive:    rec.Massive,
		Isolated:   rec.Isolated,
		Unresolved: rec.Unresolved,
		Dist:       rec.Dist,
	}
	if rec.Reports != nil {
		out.Reports = make([]Report, len(rec.Reports))
	}
	type family struct {
		refs  []int
		dense [][]int
	}
	families := map[uint64]family{}
	for i, r := range rec.Reports {
		var class Class
		if err := class.UnmarshalText([]byte(r.Class)); err != nil {
			return fmt.Errorf("report %d: %w", i, err)
		}
		var dense [][]int
		if len(r.MotionRefs) > 0 {
			h := motiontable.Hash(r.MotionRefs)
			if f, ok := families[h]; ok && slices.Equal(f.refs, r.MotionRefs) {
				dense = f.dense
			} else {
				dense = make([][]int, len(r.MotionRefs))
				for k, ref := range r.MotionRefs {
					if ref < 0 || ref >= len(rec.Motions) {
						return fmt.Errorf("report %d: motion ref %d outside a table of %d: %w",
							i, ref, len(rec.Motions), ErrInvalidInput)
					}
					dense[k] = rec.Motions[ref]
				}
				families[h] = family{r.MotionRefs, dense}
			}
		}
		out.Reports[i] = Report{
			Device:       r.Device,
			Class:        class,
			Rule:         r.Rule,
			DenseMotions: dense,
			Cost:         r.Cost,
		}
	}
	*o = out
	return nil
}
