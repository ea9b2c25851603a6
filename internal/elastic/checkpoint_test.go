package elastic

import (
	"reflect"
	"testing"
)

func TestEncodeBytesRoundTrip(t *testing.T) {
	cases := []Checkpoint{
		{},
		{Step: 7, Params: []float64{1.5, -2.25, 0, 3e300}},
		{Step: 1 << 40, Params: make([]float64, 1000)},
	}
	for _, ck := range cases {
		data := ck.EncodeBytes()
		if int64(len(data)) != ck.SizeBytes() {
			t.Fatalf("EncodeBytes length %d != SizeBytes %d", len(data), ck.SizeBytes())
		}
		got, err := DecodeBytes(data)
		if err != nil {
			t.Fatalf("DecodeBytes: %v", err)
		}
		if got.Step != ck.Step {
			t.Errorf("Step = %d, want %d", got.Step, ck.Step)
		}
		if len(got.Params) != len(ck.Params) {
			t.Fatalf("len(Params) = %d, want %d", len(got.Params), len(ck.Params))
		}
		if len(ck.Params) > 0 && !reflect.DeepEqual(got.Params, ck.Params) {
			t.Errorf("Params mismatch after round trip")
		}
	}
}

func TestDecodeBytesRefusesDamage(t *testing.T) {
	ck := Checkpoint{Step: 3, Params: []float64{1, 2, 3}}
	data := ck.EncodeBytes()

	// Truncation at every prefix length must error, never misparse.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeBytes(data[:n]); err == nil {
			t.Fatalf("DecodeBytes accepted a %d-byte truncation of a %d-byte checkpoint", n, len(data))
		}
	}
	// Trailing garbage.
	if _, err := DecodeBytes(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("DecodeBytes accepted trailing garbage")
	}
	// Wrong version byte.
	bad := append([]byte{}, data...)
	bad[0] = 99
	if _, err := DecodeBytes(bad); err == nil {
		t.Error("DecodeBytes accepted an unknown version byte")
	}
}
