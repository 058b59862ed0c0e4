package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// DecodeInstance reads one JSON instance, the plain struct encoding
// cmd/dphsrc reads with -instance, and validates it before returning,
// so callers never hold an unchecked instance from untrusted input.
// Anything after the instance but whitespace, including a second
// instance, is an error.
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
