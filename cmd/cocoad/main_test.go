package main

import (
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"
)

// Each bad flag value fails run with an error naming it. A usable
// -debug-addr starts the debug server before the public listener opens, so
// an unusable -addr fails only after the debug server announced itself,
// and run closes the debug server before it returns.
func TestRunFlagErrors(t *testing.T) {
	debugAddr := regexp.MustCompile(`http://([^/\s"]+)/debug/vars`)
	for _, tc := range []struct {
		args      []string
		want, log string
	}{
		{[]string{"-nonsense"}, "flag provided but not defined", ""},
		{[]string{"-smoke", "golden_odometry.json"}, "flag provided but not defined", ""},
		{[]string{"-log-level", "nope"}, "unknown log level", ""},
		{[]string{"-debug-addr", "256.0.0.1:bad"}, "debug server", ""},
		{[]string{"-addr", "256.0.0.1:99999"}, "listen", ""},
		{[]string{"-debug-addr", "127.0.0.1:0", "-addr", "256.0.0.1:99999"}, "listen", "debug server listening"},
	} {
		var buf bytes.Buffer
		if err := run(tc.args, &buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %q", tc.args, err, tc.want)
		}
		if !strings.Contains(buf.String(), tc.log) {
			t.Errorf("run(%q) logged %q, want it to contain %q", tc.args, buf.String(), tc.log)
		}
		// A debug server run started is closed by the time it returns.
		if m := debugAddr.FindStringSubmatch(buf.String()); m != nil {
			if conn, err := net.Dial("tcp", m[1]); err == nil {
				conn.Close()
				t.Errorf("run(%q) returned with its debug server still accepting on %s", tc.args, m[1])
			}
		} else if tc.log != "" {
			t.Errorf("run(%q) logged no debug server address: %q", tc.args, buf.String())
		}
	}
}

