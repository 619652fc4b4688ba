package launch

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

// Duration resolves a duration knob: the Config value if nonzero (negative
// meaning "disabled" normalizes to 0), else the environment variable, else
// def. Both parent and children resolve their knobs, and children inherit
// the parent's environment, so the values agree.
func Duration(transport string, cfgVal time.Duration, env string, def time.Duration) time.Duration {
	if cfgVal != 0 {
		return max(cfgVal, 0)
	}
	return fromEnv(transport, env, def, func(v string) (time.Duration, bool) {
		d, err := time.ParseDuration(v)
		return d, err == nil && d >= 0
	})
}

// Bytes resolves a byte-size knob: the Config value if positive, else the
// environment variable, else def.
func Bytes(transport string, cfgVal int64, env string, def int64) int64 {
	if cfgVal > 0 {
		return cfgVal
	}
	return fromEnv(transport, env, def, func(v string) (int64, bool) {
		n, err := strconv.ParseInt(v, 10, 64)
		return n, err == nil && n > 0
	})
}

// fromEnv parses the variable if it is set, reporting a value parse rejects
// on stderr and falling back to def.
func fromEnv[T any](transport, env string, def T, parse func(string) (T, bool)) T {
	v := os.Getenv(env)
	if v == "" {
		return def
	}
	if x, ok := parse(v); ok {
		return x
	}
	fmt.Fprintf(os.Stderr, "%s: ignoring malformed %s=%q\n", transport, env, v)
	return def
}
