package serve

import (
	"fmt"
	"strings"

	"khsim/internal/hafnium"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// ParseManifest reads the serving manifest format: a [serve] section with
// workload parameters and ordinary [vm ...] sections forming the node's
// partition plan. The plan must contain one super-secondary (the login /
// admission VM) and at least one secondary (the environment pool); the
// roles are discovered from the classes, not named explicitly:
//
//	[serve]
//	run_ms = 400
//	drain_ms = 200
//	ttl_ms = 50
//	warm_pool = 2
//	rates = 50, 500, 2000, 8000
//	job_short_us = 200
//	job_long_us = 2000
//	job_long_frac = 0.05
//	retry_us = 20
//	crash_mean_ms = 0          # 0 disables the crash campaign
//
//	[vm primary]
//	class = primary
//	...
//
// Comments start with '#'. The [vm ...] sections pass through verbatim
// (hafnium.PlanText) to hafnium.ParseManifest.
func ParseManifest(text string) (Config, error) {
	cfg := DefaultConfig()
	cfg.Mix = workload.DefaultLambdaMix()
	var plan hafnium.PlanText
	inServe := false
	err := hafnium.ScanManifest(text, "serve", func(l *hafnium.ManifestLine) error {
		if plan.Take(l) {
			return nil
		}
		if l.Header != "" {
			if l.Kind != "serve" || l.Name != "" {
				return fmt.Errorf("expected [serve] or [vm <name>]")
			}
			inServe = true
			return nil
		}
		if !inServe {
			return fmt.Errorf("key %q outside any section", l.Key)
		}
		return cfg.serveKey(l)
	})
	if err != nil {
		return Config{}, err
	}
	cfg.NodePlan = plan.String()
	if cfg.NodePlan == "" {
		return Config{}, fmt.Errorf("serve: manifest has no [vm ...] sections")
	}
	nm, err := hafnium.ParseManifest(cfg.NodePlan)
	if err != nil {
		return Config{}, err
	}
	cfg.LoginVM, cfg.EnvVMs = "", nil
	for _, v := range nm.VMs {
		switch v.Class {
		case hafnium.SuperSecondary:
			cfg.LoginVM = v.Name
		case hafnium.Secondary:
			cfg.EnvVMs = append(cfg.EnvVMs, v.Name)
		}
	}
	if cfg.LoginVM == "" {
		return Config{}, fmt.Errorf("serve: plan needs a super-secondary login VM")
	}
	if len(cfg.EnvVMs) == 0 {
		return Config{}, fmt.Errorf("serve: plan needs at least one secondary environment VM")
	}
	if len(cfg.Rates) == 0 {
		return Config{}, fmt.Errorf("serve: manifest needs at least one arrival rate")
	}
	if cfg.WarmPool > len(cfg.EnvVMs) {
		return Config{}, fmt.Errorf("serve: warm_pool %d out of range for %d environments", cfg.WarmPool, len(cfg.EnvVMs))
	}
	return cfg, nil
}

func (c *Config) serveKey(l *hafnium.ManifestLine) error {
	var err error
	switch l.Key {
	case "run_ms":
		c.Run, err = l.Duration(sim.Millisecond)
	case "drain_ms":
		c.Drain, err = l.Duration(sim.Millisecond)
	case "ttl_ms":
		c.TTL, err = l.Duration(sim.Millisecond)
	case "warm_pool":
		c.WarmPool, err = l.Int()
	case "retry_us":
		c.RetryBackoff, err = l.Duration(sim.Microsecond)
	case "job_short_us":
		c.Mix.MeanShort, err = l.Duration(sim.Microsecond)
	case "job_long_us":
		c.Mix.MeanLong, err = l.Duration(sim.Microsecond)
	case "job_long_frac":
		c.Mix.LongFrac, err = l.Fraction()
	case "crash_mean_ms":
		c.CrashMean, err = l.OptionalDuration(sim.Millisecond)
	case "rates":
		c.Rates = nil
		rate := *l
		for _, f := range strings.Split(l.Val, ",") {
			rate.Val = strings.TrimSpace(f)
			v, err := rate.Number()
			if err != nil {
				return err
			}
			c.Rates = append(c.Rates, v)
		}
	default:
		err = fmt.Errorf("unknown [serve] key %q", l.Key)
	}
	return err
}
