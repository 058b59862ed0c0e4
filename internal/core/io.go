package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// EncodeInstance writes the instance as indented JSON. The format is
// the plain struct encoding, stable across releases; cmd/dphsrc reads
// it with -instance.
func EncodeInstance(w io.Writer, inst Instance) error {
	if err := inst.Validate(); err != nil {
		return fmt.Errorf("core: refusing to encode invalid instance: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(inst); err != nil {
		return fmt.Errorf("core: encoding instance: %w", err)
	}
	return nil
}

// DecodeInstance reads one JSON instance and validates it before
// returning, so callers never hold an unchecked instance from untrusted
// input. Anything after the instance but whitespace, including a
// second instance, is an error.
func DecodeInstance(r io.Reader) (Instance, error) {
	var inst Instance
	dec := json.NewDecoder(r)
	if err := dec.Decode(&inst); err != nil {
		return Instance{}, fmt.Errorf("core: decoding instance: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Instance{}, errors.New("core: decoding instance: trailing data after the instance")
	}
	if err := inst.Validate(); err != nil {
		return Instance{}, err
	}
	return inst, nil
}
