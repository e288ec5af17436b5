package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
)

// outputs are a cell's virtual outputs flattened to named counters.
// Zero counters are left out, so a counter that appears later compares
// against an implicit zero.
type outputs map[string]uint64

func (o outputs) add(name string, v uint64) {
	if v != 0 {
		o[name] = v
	}
}

// flatten adds every unsigned counter reachable from v — struct fields,
// array elements and map entries — under a dotted name.
func flatten(o outputs, prefix string, v any) {
	flattenValue(o, prefix, reflect.ValueOf(v))
}

func flattenValue(o outputs, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		o.add(name, v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		o.add(name, uint64(v.Int()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				flattenValue(o, name+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			el := v.Index(i)
			// Lock rows carry their name; index the rest by position.
			key := fmt.Sprint(i)
			if el.Kind() == reflect.Struct {
				if n := el.FieldByName("Name"); n.IsValid() && n.Kind() == reflect.String {
					key = n.String()
				}
			}
			flattenValue(o, name+"."+key, el)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			flattenValue(o, fmt.Sprintf("%s[%v]", name, k.Interface()), v.MapIndex(k))
		}
	}
}

// pinSet maps a cell name to its pinned outputs. A nil set checks
// nothing (the package's tests compare runs with each other instead).
type pinSet map[string]outputs

func (p pinSet) has(cell string) bool {
	_, ok := p[cell]
	return ok
}

// check compares a cell's outputs with its pins and names every field
// that differs.
func (p pinSet) check(cell string, got outputs) error {
	if p == nil {
		return nil
	}
	want, ok := p[cell]
	if !ok {
		return fmt.Errorf("no pinned virtual outputs for cell %s", cell)
	}
	var diffs []string
	for _, name := range unionKeys(got, want) {
		if got[name] != want[name] {
			diffs = append(diffs, fmt.Sprintf("%s = %d, pinned %d", name, got[name], want[name]))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("virtual outputs drifted from their pins: %s", strings.Join(diffs, "; "))
	}
	return nil
}

func unionKeys(a, b outputs) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadPins(path string) (pinSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read pins: %w", err)
	}
	var p pinSet
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("parse pins %s: %w", path, err)
	}
	return p, nil
}

// recordPins runs one unchecked pass of w and stores its cells' outputs
// in the pin file, keeping the pins of the other workloads.
func recordPins(path string, pins pinSet, w *batch) error {
	order := make([]int, len(w.cells))
	for i := range order {
		order[i] = i
	}
	p := runPass(w, order, nil, nil, false)
	if pins == nil {
		pins = pinSet{}
	}
	var errs []error
	for _, c := range p.cells {
		if c.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.name, c.err))
			continue
		}
		pins[c.name] = c.virt
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("pinned %d cells of %s\n", len(p.cells), w.name)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digest fingerprints the virtual outputs of a run's cells, so runs can
// be compared for drift without the pin file.
func digest(cells map[string]outputs) string {
	b, err := json.Marshal(cells) // map keys marshal sorted
	if err != nil {
		panic(err) // maps of counters always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
