package hafnium

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"khsim/internal/sim"
)

// ManifestLine is one meaningful line of a manifest: either a section
// header ("[kind name]") or a "key = value" pair. Every manifest format
// in khsim — the node plan here, the cluster and serving formats that
// embed it — is read through ScanManifest, and every value through the
// typed accessors below, so the range rules (finite, in range, no
// trailing garbage) hold the same way in all of them.
type ManifestLine struct {
	N int // 1-based line number

	// Header lines: the trimmed header text, its first word and the
	// rest ("" for a one-word header like [cluster]).
	Header, Kind, Name string

	// Pair lines.
	Key, Val string
}

// ScanManifest tokenizes manifest text and calls fn once per section
// header or key = value pair, in order. '#' starts a comment; blank
// lines are skipped. Errors from fn and from malformed lines come back
// as "<pkg>: manifest line N: ...".
func ScanManifest(text, pkg string, fn func(l *ManifestLine) error) error {
	var l ManifestLine
	for rest := text; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		l = ManifestLine{N: l.N + 1}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var err error
		if strings.HasPrefix(line, "[") {
			err = l.header(line)
		} else if key, val, ok := strings.Cut(line, "="); ok {
			l.Key, l.Val = strings.TrimSpace(key), strings.TrimSpace(val)
		} else {
			err = fmt.Errorf("expected key = value")
		}
		if err == nil {
			err = fn(&l)
		}
		if err != nil {
			return fmt.Errorf("%s: manifest line %d: %w", pkg, l.N, err)
		}
	}
	return nil
}

// header splits "[kind name]" into its words; a header must have one or
// two.
func (l *ManifestLine) header(line string) error {
	if !strings.HasSuffix(line, "]") {
		return fmt.Errorf("unterminated section")
	}
	l.Header = line
	inner := strings.TrimSpace(strings.Trim(line, "[]"))
	if i := strings.IndexFunc(inner, unicode.IsSpace); i >= 0 {
		l.Kind, l.Name = inner[:i], strings.TrimSpace(inner[i:])
	} else {
		l.Kind = inner
	}
	if l.Kind == "" || strings.IndexFunc(l.Name, unicode.IsSpace) >= 0 {
		return fmt.Errorf("malformed section header %s", line)
	}
	return nil
}

func (l *ManifestLine) want(what string) error {
	return fmt.Errorf("%s: want %s, got %q", l.Key, what, l.Val)
}

// Int returns the value as a non-negative int.
func (l *ManifestLine) Int() (int, error) {
	n, err := strconv.Atoi(l.Val)
	if err != nil || n < 0 {
		return 0, l.want("a non-negative integer")
	}
	return n, nil
}

// Bool returns the value as a boolean (true/false, 1/0).
func (l *ManifestLine) Bool() (bool, error) {
	b, err := strconv.ParseBool(l.Val)
	if err != nil {
		return false, l.want("true or false")
	}
	return b, nil
}

// Enum returns the index of the value among names.
func (l *ManifestLine) Enum(names ...string) (int, error) {
	for i, n := range names {
		if l.Val == n {
			return i, nil
		}
	}
	return 0, l.want(strings.Join(names, " | "))
}

// maxNumber caps Number: rates and bandwidths past it are not
// physical, and a rate's reciprocal stays at least a picosecond-second.
const maxNumber = 1e12

// Number returns the value as a positive finite number no larger than
// 1e12.
func (l *ManifestLine) Number() (float64, error) {
	v, err := strconv.ParseFloat(l.Val, 64)
	if err != nil || !(v > 0 && v <= maxNumber) {
		return 0, l.want("a positive number up to 1e12")
	}
	return v, nil
}

// Fraction returns the value as a number in [0,1].
func (l *ManifestLine) Fraction() (float64, error) {
	v, err := strconv.ParseFloat(l.Val, 64)
	if err != nil || !(v >= 0 && v <= 1) {
		return 0, l.want("a fraction in [0,1]")
	}
	return v, nil
}

// Duration reads the value as a count of unit (sim.Microsecond,
// sim.Millisecond, ...) and returns it as a positive Duration that fits
// the simulated clock.
func (l *ManifestLine) Duration(unit sim.Duration) (sim.Duration, error) {
	v, err := strconv.ParseFloat(l.Val, 64)
	if err != nil {
		return 0, l.want("a positive finite duration")
	}
	d, err := sim.FromUnit(v, unit)
	if err != nil || d <= 0 {
		return 0, l.want("a positive finite duration")
	}
	return d, nil
}

// OptionalDuration is Duration for knobs where 0 means off.
func (l *ManifestLine) OptionalDuration(unit sim.Duration) (sim.Duration, error) {
	if v, err := strconv.ParseFloat(l.Val, 64); err == nil && v == 0 {
		return 0, nil
	}
	return l.Duration(unit)
}

// PlanText collects the [vm ...] sections of a format that embeds a
// node plan, verbatim (comments aside), as text for ParseManifest.
type PlanText struct {
	b  strings.Builder
	in bool // inside a [vm] section
}

// Take records l if it belongs to a [vm <name>] section and reports
// whether it did; other lines are the embedding format's to handle.
func (p *PlanText) Take(l *ManifestLine) bool {
	if l.Header != "" {
		p.in = l.Kind == "vm" && l.Name != ""
		if p.in {
			fmt.Fprintf(&p.b, "\n%s\n", l.Header)
		}
		return p.in
	}
	if p.in {
		fmt.Fprintf(&p.b, "%s = %s\n", l.Key, l.Val)
	}
	return p.in
}

// String returns the collected plan ("" when there was no [vm] section).
func (p *PlanText) String() string { return p.b.String() }
