// Package benchjson is the one writer for the repo's checked-in
// BENCH_*.json artifacts.  Every benchmark path (loadgen, stream,
// zipf, shard, exec) used to hand-roll the same
// marshal-indent-append-newline-write sequence; this package folds
// them together and adds the schema check CI re-implements in shell:
// a BENCH file is a single JSON object whose required top-level keys
// are present and non-null, so a refactor that renames a field fails
// at write time instead of after the artifact is committed.
package benchjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Validate checks that data is one JSON object carrying every
// required top-level key with a non-null value.
func Validate(data []byte, required ...string) error {
	var top map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&top); err != nil {
		return fmt.Errorf("benchjson: not a JSON object: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("benchjson: trailing data after the document")
	}
	for _, key := range required {
		raw, ok := top[key]
		if !ok {
			return fmt.Errorf("benchjson: required key %q missing", key)
		}
		if string(bytes.TrimSpace(raw)) == "null" {
			return fmt.Errorf("benchjson: required key %q is null", key)
		}
	}
	return nil
}

// Marshal renders doc in the repo's BENCH house style — two-space
// indentation, trailing newline — and validates the required keys.
func Marshal(doc any, required ...string) ([]byte, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	data = append(data, '\n')
	if err := Validate(data, required...); err != nil {
		return nil, err
	}
	return data, nil
}

// Write marshals, validates, and lands doc at dest ("-" for stdout).
func Write(dest string, doc any, required ...string) error {
	data, err := Marshal(doc, required...)
	if err != nil {
		return err
	}
	if dest == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(dest, data, 0o644)
}

// Load reads a BENCH file back, validates it, and returns the
// top-level keys raw — the CI guards and cross-file comparisons work
// on this without re-declaring every document struct.
func Load(path string, required ...string) (map[string]json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	if err := Validate(data, required...); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return top, nil
}
