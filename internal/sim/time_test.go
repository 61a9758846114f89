package sim

import (
	"math"
	"strings"
	"testing"
)

func TestDurationConversions(t *testing.T) {
	if FromNanos(1) != Nanosecond {
		t.Fatalf("FromNanos(1) = %d", FromNanos(1))
	}
	if FromMicros(1) != Microsecond {
		t.Fatalf("FromMicros(1) = %d", FromMicros(1))
	}
	if FromSeconds(1) != Second {
		t.Fatalf("FromSeconds(1) = %d", FromSeconds(1))
	}
	d := FromMicros(2.5)
	if math.Abs(d.Micros()-2.5) > 1e-9 {
		t.Fatalf("round trip micros = %v", d.Micros())
	}
	if math.Abs(FromSeconds(0.25).Seconds()-0.25) > 1e-12 {
		t.Fatal("seconds round trip failed")
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(FromSeconds(1))
	if t0 != Time(Second) {
		t.Fatalf("Add gave %d", t0)
	}
	if t0.Sub(Time(0)) != Duration(Second) {
		t.Fatalf("Sub gave %d", t0.Sub(Time(0)))
	}
	if t0.Seconds() != 1 {
		t.Fatalf("Seconds gave %v", t0.Seconds())
	}
}

func TestHertzPeriod(t *testing.T) {
	if Hertz(10).Period() != 100*Millisecond {
		t.Fatalf("10Hz period = %v", Hertz(10).Period())
	}
	if Hertz(250).Period() != 4*Millisecond {
		t.Fatalf("250Hz period = %v", Hertz(250).Period())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	Hertz(0).Period()
}

func TestCycles(t *testing.T) {
	// 1152 cycles at 1.152 GHz is exactly 1 us.
	d := Cycles(1152, 1.152e9)
	if math.Abs(d.Micros()-1) > 1e-6 {
		t.Fatalf("1152 cycles @1.152GHz = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero frequency did not panic")
		}
	}()
	Cycles(1, 0)
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "ps"},
		{FromNanos(500), "ns"},
		{FromMicros(500), "us"},
		{500 * Millisecond, "ms"},
		{2 * Second, "s"},
	}
	for _, c := range cases {
		if got := c.d.String(); !strings.HasSuffix(got, c.want) {
			t.Errorf("(%d).String() = %q, want suffix %q", int64(c.d), got, c.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]Duration{
		"100ns": FromNanos(100), "50us": FromMicros(50), "0.5ms": FromMicros(500),
		"2s": FromSeconds(2), "0ms": 0, "-1ms": -Millisecond, "1e3us": Millisecond,
	} {
		if got, err := ParseDuration(s); err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"NaNms", "infs", "-Infus", "1xms", "1e300s", "9.3e6s", "ms", "5", "5m", ""} {
		if d, err := ParseDuration(s); err == nil {
			t.Errorf("ParseDuration(%q) accepted as %v", s, d)
		}
	}
}

func TestFromUnitBounds(t *testing.T) {
	if d, err := FromUnit(9e6, Second); err != nil || d != FromSeconds(9e6) {
		t.Fatalf("FromUnit(9e6 s) = %v, %v", d, err)
	}
	if _, err := FromUnit(1, 7); err == nil {
		t.Fatal("FromUnit accepted a non-unit")
	}
}
