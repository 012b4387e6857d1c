package kernel

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// asmInsn is one instruction of an assembly TEXT block, or a label.
type asmInsn struct {
	op       string // mnemonic with any suffix (VMULPD.BCST), or "label:"
	operands []string
}

// asmBlock is one TEXT block, with macro invocations expanded.
type asmBlock struct {
	name  string
	insns []asmInsn
}

// asmMacro is one #define: its parameters, if it takes any, and its body
// split at ';'.
type asmMacro struct {
	params []string
	body   []string
}

// macroWord matches the identifiers a macro argument can replace.
var macroWord = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// expand returns m's body for an invocation whose text after the macro's
// name is args: "" for a macro without parameters, "(a, b, ...)" for one
// with them, each parameter replaced by its argument as a whole word. It
// reports false when the arguments do not fit the parameters.
func (m asmMacro) expand(args string) ([]string, bool) {
	args = strings.TrimSpace(args)
	if len(m.params) == 0 {
		return m.body, args == ""
	}
	vals := strings.Split(strings.TrimSuffix(strings.TrimPrefix(args, "("), ")"), ",")
	if !strings.HasPrefix(args, "(") || !strings.HasSuffix(args, ")") || len(vals) != len(m.params) {
		return nil, false
	}
	sub := map[string]string{}
	for i, p := range m.params {
		sub[p] = strings.TrimSpace(vals[i])
	}
	out := make([]string, len(m.body))
	for i, st := range m.body {
		out[i] = macroWord.ReplaceAllStringFunc(st, func(w string) string {
			if v, ok := sub[w]; ok {
				return v
			}
			return w
		})
	}
	return out, true
}

// parseAsm splits Go assembly source into its TEXT blocks. Comments are
// dropped, #define bodies are joined across their continuation lines and
// split at ';', and a line that names a macro is replaced by its body,
// with the arguments put in for the parameters of a macro that takes
// them. An invocation whose arguments do not fit is kept as written, so
// its instruction name holds the "(" the test reports.
func parseAsm(src string) []asmBlock {
	var lines []string
	for _, l := range strings.Split(src, "\n") {
		if i := strings.Index(l, "//"); i >= 0 {
			l = l[:i]
		}
		lines = append(lines, strings.TrimSpace(l))
	}
	macros := map[string]asmMacro{}
	var blocks []asmBlock
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		switch {
		case strings.HasPrefix(l, "#define"):
			def := l
			for strings.HasSuffix(def, `\`) && i+1 < len(lines) {
				i++
				def = strings.TrimSuffix(def, `\`) + " " + lines[i]
			}
			def = strings.TrimSpace(strings.TrimPrefix(def, "#define"))
			name, rest := def, ""
			if j := strings.IndexAny(def, " ("); j >= 0 {
				name, rest = def[:j], def[j:]
			}
			var m asmMacro
			if strings.HasPrefix(rest, "(") {
				j := strings.Index(rest, ")")
				for _, p := range strings.Split(rest[1:j], ",") {
					m.params = append(m.params, strings.TrimSpace(p))
				}
				rest = rest[j+1:]
			}
			m.body = strings.Split(rest, ";")
			macros[name] = m
		case strings.HasPrefix(l, "TEXT"):
			name := strings.TrimSpace(strings.TrimPrefix(l, "TEXT"))
			if j := strings.Index(name, "(SB)"); j >= 0 {
				name = strings.TrimPrefix(name[:j], "·")
			}
			blocks = append(blocks, asmBlock{name: name})
		case l == "" || len(blocks) == 0 || strings.HasPrefix(l, "#"):
		case strings.HasSuffix(l, ":") && !strings.ContainsAny(l, " \t"):
			b := &blocks[len(blocks)-1]
			b.insns = append(b.insns, asmInsn{op: "label:"})
		default:
			b := &blocks[len(blocks)-1]
			stmts := []string{l}
			name := l
			if j := strings.IndexAny(l, " \t("); j >= 0 {
				name = l[:j]
			}
			if m, ok := macros[name]; ok {
				if body, ok := m.expand(l[len(name):]); ok {
					stmts = body
				}
			}
			for _, st := range stmts {
				if st = strings.TrimSpace(st); st == "" {
					continue
				}
				op, rest, _ := strings.Cut(st, " ")
				var operands []string
				for _, o := range strings.Split(rest, ",") {
					if o = strings.TrimSpace(o); o != "" {
						operands = append(operands, o)
					}
				}
				b.insns = append(b.insns, asmInsn{op: op, operands: operands})
			}
		}
	}
	return blocks
}

var (
	// upperVecReg matches the sixteen vector registers only EVEX can name.
	upperVecReg = regexp.MustCompile(`\b[XYZ](1[6-9]|2[0-9]|3[01])\b`)
	// wideVecReg matches a YMM or ZMM register operand.
	wideVecReg = regexp.MustCompile(`^[YZ]([0-9]|1[0-5])$`)
)

// TestAsmRegisterHygiene pins the register rules tile_amd64.s documents
// for its tiles in every *_amd64.s file of the package, so a new file is
// held to them too. No operand may name X16–X31, Y16–Y31 or Z16–Z31: writes
// to those registers dirty the Hi16_ZMM state, which VZEROUPPER does not
// clear, and a tile that used them measured about 10% slower end to end.
// Every TEXT block that writes a Y or Z register must execute VZEROUPPER
// immediately before each RET, with no label between them that a jump
// could enter by, so no tile leaves a dirty upper state to the Go code
// around it. Macro invocations (EXPPD, YUK8B, GOLDSQRT(...), ...) are
// checked as expanded, with their arguments put in.
func TestAsmRegisterHygiene(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	var blocks []asmBlock
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, parseAsm(string(src))...)
	}
	wide := 0
	for _, b := range blocks {
		writesWide := false
		for _, in := range b.insns {
			for _, o := range in.operands {
				if upperVecReg.MatchString(o) {
					t.Errorf("%s: %s %s names an upper vector register", b.name, in.op, strings.Join(in.operands, ", "))
				}
			}
			if strings.Contains(in.op, "(") {
				t.Errorf("%s: %s %s is a macro call that does not match its #define", b.name, in.op, strings.Join(in.operands, ", "))
			}
			if n := len(in.operands); n > 0 && wideVecReg.MatchString(in.operands[n-1]) {
				writesWide = true
			}
		}
		if !writesWide {
			continue
		}
		wide++
		prev := ""
		for _, in := range b.insns {
			if in.op == "RET" && prev != "VZEROUPPER" {
				t.Errorf("%s writes a Y or Z register but a RET follows %q, not VZEROUPPER", b.name, prev)
			}
			prev = in.op
		}
	}
	if wide == 0 {
		t.Fatalf("parsed %d TEXT blocks in %v and none writes a Y or Z register; the parser is broken", len(blocks), files)
	}
	t.Logf("%v: %d TEXT blocks, %d write Y or Z registers", files, len(blocks), wide)
}
