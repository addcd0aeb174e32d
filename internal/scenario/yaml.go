// Package scenario turns experiments into data: a versioned YAML/JSON spec
// that composes cluster shape, workload mix, executor sizing policies,
// conf overrides, chaos clauses, arrival patterns, autoscale configs and
// SLO assertions, and compiles to the exp.Runner matrix primitives. The
// faults, grayfail, multitenant and autoscale experiments are the committed
// specs (Builtin); only the paper's figures stay in Go.
//
// The vocabulary follows PlantD's Experiment / LoadPattern / Scenario
// resource split: the cluster block is the environment, the arrival block
// the load pattern, and the spec as a whole the scenario that binds them.
// Parsing is strict — unknown fields, duplicate keys and unknown versions
// are rejected with positional errors — which is what makes fuzzing whole
// scenarios (FuzzScenarioSpec) meaningful rather than decorative.
package scenario

import (
	"fmt"
	"strings"
)

// nodeKind discriminates the parse tree.
type nodeKind int

const (
	scalarNode nodeKind = iota
	mappingNode
	sequenceNode
)

// node is one vertex of the parsed document, annotated with its source
// line so every decode error can point at the offending field.
type node struct {
	kind nodeKind
	line int
	// val holds a scalar's text.
	val string
	// keys preserves a mapping's declaration order; children its entries.
	keys     []string
	children map[string]*node
	// seq holds a sequence's items.
	seq []*node
}

func (n *node) kindName() string {
	switch n.kind {
	case mappingNode:
		return "mapping"
	case sequenceNode:
		return "sequence"
	default:
		return "scalar"
	}
}

// yline is one significant source line: its 1-based number, indentation in
// spaces, and content with indentation and comments stripped.
type yline struct {
	num    int
	indent int
	text   string
}

// parseYAML parses the supported YAML subset: block mappings and sequences
// nested by space indentation, plain/quoted scalars, flow sequences
// ("[a, b]"), and '#' comments. Tabs, flow mappings, anchors, multi-line
// scalars and multi-document streams are rejected — scenario specs are
// data, and a small grammar keeps strict round-trip parsing tractable.
func parseYAML(data []byte) (*node, error) {
	var lines []yline
	for i, raw := range strings.Split(string(data), "\n") {
		num := i + 1
		if strings.ContainsRune(raw, '\t') {
			return nil, fmt.Errorf("line %d: tabs are not allowed (indent with spaces)", num)
		}
		text, err := stripComment(raw, num)
		if err != nil {
			return nil, err
		}
		trimmed := strings.TrimLeft(text, " ")
		if trimmed == "" {
			continue
		}
		if trimmed == "---" {
			if len(lines) > 0 {
				return nil, fmt.Errorf("line %d: multi-document streams are not supported", num)
			}
			continue
		}
		lines = append(lines, yline{
			num:    num,
			indent: len(text) - len(trimmed),
			text:   strings.TrimRight(trimmed, " "),
		})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	p := &yparser{lines: lines}
	n, err := p.block(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
	}
	return n, nil
}

// stripComment removes a trailing '#' comment, respecting quoted strings.
func stripComment(s string, num int) (string, error) {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#':
			if i == 0 || s[i-1] == ' ' {
				return s[:i], nil
			}
		}
	}
	if quote != 0 {
		return "", fmt.Errorf("line %d: unterminated %q quote", num, string(quote))
	}
	return s, nil
}

type yparser struct {
	lines []yline
	pos   int
}

func (p *yparser) cur() yline { return p.lines[p.pos] }

// block parses the mapping or sequence whose items sit at exactly indent.
func (p *yparser) block(indent int) (*node, error) {
	l := p.cur()
	if l.indent != indent {
		return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
	}
	if l.text == "-" || strings.HasPrefix(l.text, "- ") {
		return p.sequence(indent)
	}
	return p.mapping(indent)
}

func (p *yparser) mapping(indent int) (*node, error) {
	n := &node{kind: mappingNode, line: p.cur().num, children: map[string]*node{}}
	for p.pos < len(p.lines) {
		l := p.cur()
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
		}
		if l.text == "-" || strings.HasPrefix(l.text, "- ") {
			return nil, fmt.Errorf("line %d: sequence item in mapping", l.num)
		}
		key, rest, err := splitKey(l.text, l.num)
		if err != nil {
			return nil, err
		}
		if _, dup := n.children[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", l.num, key)
		}
		p.pos++
		var child *node
		if rest != "" {
			if child, err = parseScalar(rest, l.num); err != nil {
				return nil, err
			}
		} else {
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("line %d: key %q has no value", l.num, key)
			}
			if child, err = p.block(p.lines[p.pos].indent); err != nil {
				return nil, err
			}
		}
		n.keys = append(n.keys, key)
		n.children[key] = child
	}
	return n, nil
}

func (p *yparser) sequence(indent int) (*node, error) {
	n := &node{kind: sequenceNode, line: p.cur().num}
	for p.pos < len(p.lines) {
		l := p.cur()
		if l.indent != indent || (l.text != "-" && !strings.HasPrefix(l.text, "- ")) {
			if l.indent > indent {
				return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
			}
			break
		}
		if l.text == "-" {
			// Item body nested on the following lines.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("line %d: empty sequence item", l.num)
			}
			item, err := p.block(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			n.seq = append(n.seq, item)
			continue
		}
		rest := strings.TrimLeft(l.text[2:], " ")
		if rest == "" {
			return nil, fmt.Errorf("line %d: empty sequence item", l.num)
		}
		if isMappingStart(rest) {
			// "- key: value": the item is a mapping whose first entry sits
			// on the dash line and whose remaining entries are indented
			// past the dash. Rewrite the line as that first entry and
			// parse a mapping block at the entry's column.
			inner := l.indent + (len(l.text) - len(rest))
			p.lines[p.pos] = yline{num: l.num, indent: inner, text: rest}
			item, err := p.mapping(inner)
			if err != nil {
				return nil, err
			}
			n.seq = append(n.seq, item)
			continue
		}
		item, err := parseScalar(rest, l.num)
		if err != nil {
			return nil, err
		}
		n.seq = append(n.seq, item)
		p.pos++
	}
	return n, nil
}

// isMappingStart reports whether a sequence item's inline text opens a
// mapping ("name: x") rather than a plain scalar ("crash1@45%").
func isMappingStart(s string) bool {
	if s[0] == '"' || s[0] == '\'' || s[0] == '[' {
		return false
	}
	_, _, err := splitKey(s, 0)
	return err == nil
}

// splitKey splits "key: value" or "key:"; keys are bare words (letters,
// digits, '.', '_', '-') as in every conf parameter and spec field.
func splitKey(s string, num int) (key, rest string, err error) {
	i := strings.IndexByte(s, ':')
	if i <= 0 {
		return "", "", fmt.Errorf("line %d: expected \"key: value\", got %q", num, s)
	}
	key = s[:i]
	for _, c := range []byte(key) {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-'
		if !ok {
			return "", "", fmt.Errorf("line %d: bad key %q", num, key)
		}
	}
	rest = s[i+1:]
	if rest != "" && rest[0] != ' ' {
		return "", "", fmt.Errorf("line %d: missing space after %q:", num, key)
	}
	return key, strings.TrimLeft(rest, " "), nil
}

// parseScalar parses a scalar or flow sequence value.
func parseScalar(s string, num int) (*node, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("line %d: unterminated flow sequence %q", num, s)
		}
		n := &node{kind: sequenceNode, line: num}
		body := strings.TrimSpace(s[1 : len(s)-1])
		if body == "" {
			return n, nil
		}
		for _, item := range splitFlow(body) {
			item = strings.TrimSpace(item)
			if item == "" {
				return nil, fmt.Errorf("line %d: empty flow sequence item in %q", num, s)
			}
			child, err := parseScalar(item, num)
			if err != nil {
				return nil, err
			}
			if child.kind != scalarNode {
				return nil, fmt.Errorf("line %d: nested flow sequences are not supported", num)
			}
			n.seq = append(n.seq, child)
		}
		return n, nil
	}
	if strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("line %d: flow mappings are not supported (use a block mapping)", num)
	}
	val, err := unquote(s, num)
	if err != nil {
		return nil, err
	}
	return &node{kind: scalarNode, line: num, val: val}, nil
}

// splitFlow splits a flow-sequence body on commas outside quotes.
func splitFlow(s string) []string {
	var out []string
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ',':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// unquote resolves quoted scalars; plain scalars pass through verbatim.
// Single-quoted scalars follow YAML's doubling escape (” → ').
func unquote(s string, num int) (string, error) {
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') {
		if s[len(s)-1] != s[0] {
			return "", fmt.Errorf("line %d: unterminated quote in %q", num, s)
		}
		body := s[1 : len(s)-1]
		if s[0] == '\'' {
			body = strings.ReplaceAll(body, "''", "'")
		}
		return body, nil
	}
	if len(s) > 0 && (s[0] == '"' || s[0] == '\'') {
		return "", fmt.Errorf("line %d: unterminated quote in %q", num, s)
	}
	return s, nil
}
