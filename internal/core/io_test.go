package core

import (
	"bytes"
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
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, inst); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeInstance(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inst, got) {
			t.Fatalf("round trip changed the instance:\nin:  %+v\nout: %+v", inst, got)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, Instance{}); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("want ErrNoWorkers, got %v", err)
	}
	if buf.Len() != 0 {
		t.Error("invalid instance partially encoded")
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
	inst := randomInstance(rand.New(rand.NewSource(3)))
	var one bytes.Buffer
	if err := EncodeInstance(&one, inst); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{
		"trailing garbage":  one.String() + "trailing",
		"second instance":   one.String() + one.String(),
		"trailing brace":    one.String() + "}",
		"unterminated rest": one.String() + `{"NumTasks"`,
	} {
		if _, err := DecodeInstance(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeInstance(strings.NewReader(one.String() + " \n\t\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
