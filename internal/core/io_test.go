package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestInstanceJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(r)
		raw, err := json.Marshal(inst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeInstance(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inst, got) {
			t.Fatalf("round trip changed the instance:\nin:  %+v\nout: %+v", inst, got)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := DecodeInstance(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := DecodeInstance(strings.NewReader(`{"NumTasks": 3}`)); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("invalid instance: got %v", err)
	}
}

func TestDecodeRejectsTrailingInput(t *testing.T) {
	raw, err := json.Marshal(randomInstance(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	one := string(raw)
	for name, in := range map[string]string{
		"trailing garbage":  one + "trailing",
		"second instance":   one + one,
		"trailing brace":    one + "}",
		"unterminated rest": one + `{"NumTasks"`,
	} {
		if _, err := DecodeInstance(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeInstance(strings.NewReader(one + " \n\t\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
