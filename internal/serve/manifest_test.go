package serve

import (
	"strings"
	"testing"
)

// TestParseManifestRejectsBadNumbers feeds every numeric [serve] key
// NaN, ±Inf, 1e300, a negative and trailing garbage. Each must be
// rejected with an error naming the line and the key: ttl_ms = Inf used
// to overflow the simulated clock and panic the run, and rates = NaN
// hung the arrival process.
func TestParseManifestRejectsBadNumbers(t *testing.T) {
	for _, key := range []string{
		"run_ms", "drain_ms", "ttl_ms", "warm_pool", "retry_us", "job_short_us",
		"job_long_us", "job_long_frac", "crash_mean_ms", "rates",
	} {
		for _, val := range []string{"NaN", "Inf", "+Inf", "-Inf", "1e300", "-2", "2x", "50, NaN"} {
			text := "[serve]\n" + key + " = " + val + "\n" + testManifest
			_, err := ParseManifest(text)
			if err == nil {
				t.Errorf("%s = %s accepted", key, val)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "line 2") || !strings.Contains(msg, key) {
				t.Errorf("%s = %s: error does not name line 2 and the key: %v", key, val, err)
			}
		}
	}
}
