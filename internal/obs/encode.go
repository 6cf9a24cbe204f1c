package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"mssr/internal/stats"
)

// fieldNames are an interval's JSON field names and CSV columns, in
// order; Interval.fields lists its fields in the same order.
var fieldNames = func() []string {
	names := []string{"index", "start_cycle", "end_cycle"}
	for _, c := range stats.IntervalCounters {
		names = append(names, c.Name)
	}
	return append(names, "ipc", "reuse_rate", "mpki", "l1d_miss_rate", "mode", "window")
}()

// fields returns pointers to the interval's fields in fieldNames order.
func (iv *Interval) fields() []any {
	f := make([]any, 0, 3+len(iv.Counters)+6)
	f = append(f, &iv.Index, &iv.Start, &iv.End)
	for i := range iv.Counters {
		f = append(f, &iv.Counters[i])
	}
	return append(f, &iv.IPC, &iv.ReuseRate, &iv.MPKI, &iv.L1DMissRate, &iv.Mode, &iv.Window)
}

// wireInterval is an interval's JSON shape as a struct type: one pointer
// field per name in fieldNames, tagged with that name. UnmarshalJSON
// points them at an interval's fields and decodes through them in one
// encoding/json pass.
var wireInterval = func() reflect.Type {
	var sf []reflect.StructField
	for i, p := range new(Interval).fields() {
		sf = append(sf, reflect.StructField{
			Name: "F" + strconv.Itoa(i),
			Type: reflect.TypeOf(p),
			Tag:  reflect.StructTag(`json:"` + fieldNames[i] + `"`),
		})
	}
	return reflect.StructOf(sf)
}()

// CSVHeader returns the comma-joined column names of CSVRow: the JSON
// field names, in the same order.
func CSVHeader() string { return strings.Join(fieldNames, ",") }

// CSVRow renders the interval as one CSV row matching CSVHeader. Floats
// use the shortest round-trippable representation, keeping rows
// byte-deterministic. Mode is a bare token, never quoted ("", "detail").
func (iv *Interval) CSVRow() string {
	b := strconv.AppendInt(nil, int64(iv.Index), 10)
	b = strconv.AppendUint(append(b, ','), iv.Start, 10)
	b = strconv.AppendUint(append(b, ','), iv.End, 10)
	for _, v := range iv.Counters {
		b = strconv.AppendUint(append(b, ','), v, 10)
	}
	for _, v := range [...]float64{iv.IPC, iv.ReuseRate, iv.MPKI, iv.L1DMissRate} {
		b = strconv.AppendFloat(append(b, ','), v, 'g', -1, 64)
	}
	b = append(append(b, ','), iv.Mode...)
	b = strconv.AppendInt(append(b, ','), int64(iv.Window), 10)
	return string(b)
}

// AppendJSON appends the interval as one JSON object to dst and returns
// the extended slice: the interval's only JSON encoding, which
// MarshalJSON also writes. Fields come in CSVHeader's order and floats
// print as encoding/json prints them, so identical intervals always
// produce identical bytes (the live event stream's golden pins rely on
// this). Mode and Window are omitted when zero.
func (iv *Interval) AppendJSON(dst []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(iv.Index), 10)
	dst = strconv.AppendUint(append(dst, `,"start_cycle":`...), iv.Start, 10)
	dst = strconv.AppendUint(append(dst, `,"end_cycle":`...), iv.End, 10)
	for i, c := range stats.IntervalCounters {
		dst = append(append(append(dst, ',', '"'), c.Name...), '"', ':')
		dst = strconv.AppendUint(dst, iv.Counters[i], 10)
	}
	dst = AppendJSONFloat(append(dst, `,"ipc":`...), iv.IPC)
	dst = AppendJSONFloat(append(dst, `,"reuse_rate":`...), iv.ReuseRate)
	dst = AppendJSONFloat(append(dst, `,"mpki":`...), iv.MPKI)
	dst = AppendJSONFloat(append(dst, `,"l1d_miss_rate":`...), iv.L1DMissRate)
	if iv.Mode != "" {
		dst = AppendJSONString(append(dst, `,"mode":`...), iv.Mode)
	}
	if iv.Window != 0 {
		dst = strconv.AppendInt(append(dst, `,"window":`...), int64(iv.Window), 10)
	}
	return append(dst, '}')
}

// MarshalJSON routes encoding/json through AppendJSON. It has a value
// receiver so an Interval encodes the same wherever it sits.
func (iv Interval) MarshalJSON() ([]byte, error) {
	return iv.AppendJSON(make([]byte, 0, 512)), nil
}

// UnmarshalJSON reads an interval by the field names AppendJSON writes,
// decoding it as encoding/json decodes a tagged struct: its input comes
// from outside (worker results, relayed event frames, stored results
// older builds wrote), so a field of the wrong type is an error, a
// missing one stays as it was and an unknown one is ignored. A mode
// other than "" and ModeDetail is an error too: CSVRow writes the mode
// as a bare token, so any other text could break a row.
func (iv *Interval) UnmarshalJSON(b []byte) error {
	w := reflect.New(wireInterval)
	for i, p := range iv.fields() {
		w.Elem().Field(i).Set(reflect.ValueOf(p))
	}
	if err := json.Unmarshal(b, w.Interface()); err != nil {
		return err
	}
	if iv.Mode != "" && iv.Mode != ModeDetail {
		return fmt.Errorf("obs: interval mode %q is neither empty nor %q", iv.Mode, ModeDetail)
	}
	return nil
}

// AppendJSONFloat appends v as encoding/json writes a float64: the
// shortest digits that round-trip, in exponent form only below 1e-6 or
// from 1e21 up, with the exponent unpadded (5e-05 prints as 0.00005,
// 1e-7 as 1e-7, 1.2e+06 as 1200000).
func AppendJSONFloat(dst []byte, v float64) []byte {
	if abs := math.Abs(v); abs == 0 || 1e-6 <= abs && abs < 1e21 {
		return strconv.AppendFloat(dst, v, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, v, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 -> e-7
		dst = dst[:n-1]
	}
	return dst
}

// AppendJSONString appends s as a JSON string, escaping the characters
// RFC 8259 requires (quote, backslash, control bytes). The strings it
// meets are ASCII identifiers, Go error text and text encoding/json
// decoded, so no HTML or UTF-8 special casing is needed for determinism:
// bytes >= 0x20 pass through.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
