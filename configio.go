package chipletnet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
)

// LoadConfig reads a JSON-encoded Config, applying DefaultConfig values
// for absent fields, and validates the result. This is the file format
// cmd/chipletsim accepts via -config.
func LoadConfig(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("chipletnet: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// WriteJSON emits the configuration as indented JSON (the same format
// LoadConfig reads).
func (c Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// MarshalJSON encodes r with every NaN or infinite float written as 0:
// an empty measurement window legitimately leaves latencies NaN, and
// encoding/json refuses non-finite numbers.
func (r Result) MarshalJSON() ([]byte, error) {
	type plain Result // without this method, so Marshal does not recurse
	p := plain(r)
	zeroNonFinite(reflect.ValueOf(&p).Elem())
	return json.Marshal(p)
}

// zeroNonFinite sets every NaN or infinite float reachable from v to 0.
// It copies the pointers and slices on the way first, so values v shares
// with its caller are never written.
func zeroNonFinite(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			v.SetFloat(0)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			c := reflect.New(v.Type().Elem())
			c.Elem().Set(v.Elem())
			v.Set(c)
			zeroNonFinite(c.Elem())
		}
	case reflect.Slice:
		if !v.IsNil() {
			c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			reflect.Copy(c, v)
			v.Set(c)
			for i := 0; i < c.Len(); i++ {
				zeroNonFinite(c.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				zeroNonFinite(f)
			}
		}
	}
}
