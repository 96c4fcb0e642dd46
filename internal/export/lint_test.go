package export

// A line-grammar checker for Prometheus text format 0.0.4, run over
// every golden file, over renders with hostile runnable names, and
// under FuzzLabelValue.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"swwd/internal/core"
	"swwd/internal/fleet"
	"swwd/internal/runnable"
)

// hostileNames are runnable names that stress label escaping: the
// three escaped characters, bytes the format passes through as they
// are, and exposition syntax.
var hostileNames = []string{
	"quo\"te", `back\slash`, "new\nline", "tab\there", "café", "nb\u00a0sp",
	"\\n", `"}`, "{a=\"b\"}", ",kind=\"x\"", "# HELP", " ", "nul\x00", "bad\xffutf8", "\r\n", "",
}

// checkExposition reports the first violation in text of the rules
// this package's output must follow:
//   - every family has exactly one HELP line, followed directly by one
//     TYPE line of a known type, and both precede its samples;
//   - every sample belongs to the family declared above it (histograms
//     through their _bucket, _sum and _count series);
//   - metric and label names are legal and label values use only the
//     \\, \" and \n escapes;
//   - every sample value parses as a float.
func checkExposition(text string) error {
	if text != "" && !strings.HasSuffix(text, "\n") {
		return errors.New("exposition does not end in a newline")
	}
	declared := map[string]bool{}
	var fam, typ string
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, a ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, a...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			switch {
			case fam != "" && typ == "":
				return fail("family %s has no TYPE line", fam)
			case !validName(name, true):
				return fail("illegal family name %q", name)
			case declared[name]:
				return fail("family %s declared twice", name)
			}
			declared[name] = true
			fam, typ = name, ""
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, t, _ := strings.Cut(rest, " ")
			if name != fam || typ != "" {
				return fail("TYPE %s does not directly follow its HELP line", name)
			}
			if t != "counter" && t != "gauge" && t != "histogram" {
				return fail("unknown type %q", t)
			}
			typ = t
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fail("unexpected comment")
		}
		if typ == "" {
			return fail("sample before its family's HELP and TYPE")
		}
		name, labels, err := parseSample(line)
		if err != nil {
			return fail("%v", err)
		}
		if !belongs(name, labels, fam, typ) {
			return fail("sample %s is outside %s family %s", name, typ, fam)
		}
	}
	if fam != "" && typ == "" {
		return fmt.Errorf("family %s has no TYPE line", fam)
	}
	return nil
}

// belongs reports whether a sample named name with labels is part of
// family fam of type typ.
func belongs(name string, labels [][2]string, fam, typ string) bool {
	if typ != "histogram" {
		return name == fam
	}
	switch name {
	case fam + "_bucket":
		return len(labels) > 0 && labels[len(labels)-1][0] == "le"
	case fam + "_sum", fam + "_count":
		return true
	}
	return false
}

// parseSample splits a sample line into its metric name and its
// un-escaped label pairs, and checks the value.
func parseSample(line string) (name string, labels [][2]string, err error) {
	i := nameLen(line, true)
	name, rest := line[:i], line[i:]
	if name == "" {
		return "", nil, errors.New("missing metric name")
	}
	if rest, ok := strings.CutPrefix(rest, "{"); ok {
		if labels, rest, err = parseLabels(rest); err != nil {
			return "", nil, err
		}
		return name, labels, parseValue(rest)
	}
	return name, nil, parseValue(rest)
}

// parseLabels parses `k="v",...}` and returns what follows the brace.
func parseLabels(s string) (labels [][2]string, rest string, err error) {
	for {
		i := nameLen(s, false)
		key := s[:i]
		if key == "" {
			return nil, "", fmt.Errorf("missing label name at %q", s)
		}
		var ok bool
		if s, ok = strings.CutPrefix(s[i:], `="`); !ok {
			return nil, "", fmt.Errorf("label %s: want =\" after the name", key)
		}
		var v []byte
		for {
			if s == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", key)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if s == "" {
					return nil, "", fmt.Errorf("label %s: dangling backslash", key)
				}
				switch s[0] {
				case '\\', '"':
					c = s[0]
				case 'n':
					c = '\n'
				default:
					return nil, "", fmt.Errorf("label %s: illegal escape \\%c", key, s[0])
				}
				s = s[1:]
			}
			v = append(v, c)
		}
		labels = append(labels, [2]string{key, string(v)})
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case strings.HasPrefix(s, "}"):
			return labels, s[1:], nil
		default:
			return nil, "", fmt.Errorf("label %s: want , or } after the value", key)
		}
	}
}

// parseValue checks " <float>", the value without a timestamp.
func parseValue(s string) error {
	v, ok := strings.CutPrefix(s, " ")
	if !ok {
		return fmt.Errorf("want one space before the value, got %q", s)
	}
	if _, err := strconv.ParseFloat(v, 64); err != nil {
		return fmt.Errorf("value: %v", err)
	}
	return nil
}

// nameLen is the length of the metric name (colons allowed) or label
// name that s starts with.
func nameLen(s string, metric bool) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9' || metric && c == ':') {
			return i
		}
	}
	return len(s)
}

func validName(s string, metric bool) bool { return s != "" && nameLen(s, metric) == len(s) }

func TestCheckerRejects(t *testing.T) {
	for _, bad := range []string{
		"swwd_x 1\n",                                       // sample before HELP/TYPE
		"# HELP swwd_x h\nswwd_x 1\n",                      // no TYPE
		"# TYPE swwd_x gauge\n",                            // TYPE without HELP
		"# HELP swwd_x h\n# TYPE swwd_x gauge\nswwd_y 1\n", // foreign sample
		"# HELP swwd_x h\n# TYPE swwd_x gauge\n# HELP swwd_x h\n# TYPE swwd_x gauge\n", // declared twice
		"# HELP swwd_x h\n# TYPE swwd_x gauge\nswwd_x{r=\"a\\tb\"} 1\n",                // Go escape
		"# HELP swwd_x h\n# TYPE swwd_x gauge\nswwd_x{r=\"a\\x41\"} 1\n",               // Go escape
		"# HELP swwd_x h\n# TYPE swwd_x gauge\nswwd_x{r=\"a} 1\n",                      // unterminated
		"# HELP swwd_x h\n# TYPE swwd_x gauge\nswwd_x one\n",                           // value
		"# HELP swwd_h h\n# TYPE swwd_h histogram\nswwd_h 1\n",                         // bare histogram
		"# HELP swwd_x h\n# TYPE swwd_x gauge\nswwd_x 1",                               // no final newline
		"# HELP swwd_x h\n# TYPE swwd_x summary\nswwd_x 1\n",                           // type
	} {
		if checkExposition(bad) == nil {
			t.Errorf("checker accepted %q", bad)
		}
	}
}

// TestGoldenWellFormed runs the checker over every golden file.
func TestGoldenWellFormed(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.prom"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkExposition(string(text)); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestHostileNamesWellFormed renders every family that carries a
// runnable label under hostile names and checks that the exposition
// stays well formed and every label reads back as the name.
func TestHostileNamesWellFormed(t *testing.T) {
	s := goldenSnapshot()
	s.Runnables = make([]core.RunnableStats, len(hostileNames))
	st := goldenCalib()
	st.Candidates = nil
	for i := range hostileNames {
		st.Candidates = append(st.Candidates, fleet.CalibCandidate{Runnable: runnable.ID(i), HasShadow: true})
	}
	var b bytes.Buffer
	WriteSnapshot(&b, &s, hostileNames)
	WriteCalib(&b, st, hostileNames)
	if err := checkExposition(b.String()); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i, name := range hostileNames {
		for _, line := range strings.Split(b.String(), "\n") {
			_, labels, err := parseSample(line)
			if err != nil || len(labels) == 0 || labels[0][0] != "runnable" {
				continue
			}
			if labels[0][1] == runnableLabel(name, i) {
				seen++
			}
		}
	}
	// Per runnable: active, beats, 3 faults; per candidate: windows,
	// 2 would-faults, streak, applied.
	if want := len(hostileNames) * 10; seen != want {
		t.Fatalf("%d samples read back their runnable name, want %d:\n%s", seen, want, b.Bytes())
	}
}

// runnableLabel is the label value runnable id must read back as.
func runnableLabel(name string, id int) string {
	if name == "" {
		return "runnable-" + strconv.Itoa(id)
	}
	return name
}

// FuzzLabelValue checks that any runnable name renders a well-formed
// exposition whose labels un-escape back to the name.
func FuzzLabelValue(f *testing.F) {
	for _, n := range hostileNames {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s := core.Snapshot{Runnables: make([]core.RunnableStats, 1)}
		var b bytes.Buffer
		WriteSnapshot(&b, &s, []string{name})
		if err := checkExposition(b.String()); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, line := range strings.Split(b.String(), "\n") {
			_, labels, err := parseSample(line)
			if err != nil || len(labels) == 0 || labels[0][0] != "runnable" {
				continue
			}
			if got := labels[0][1]; got != runnableLabel(name, 0) {
				t.Fatalf("label reads back as %q, want %q", got, name)
			}
			n++
		}
		if n != 5 {
			t.Fatalf("%d runnable samples, want 5", n)
		}
	})
}
