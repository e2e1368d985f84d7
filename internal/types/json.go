package types

import (
	"encoding/json"
	"fmt"
)

// valueJSON is the wire form of a Value for repository persistence. Only
// scalar values appear in plans (literals in expressions), but the codec
// supports the full model for completeness.
type valueJSON struct {
	Kind  string        `json:"kind"`
	Bool  bool          `json:"bool,omitempty"`
	Int   int64         `json:"int,omitempty"`
	Float float64       `json:"float,omitempty"`
	Str   string        `json:"str,omitempty"`
	Tuple []valueJSON   `json:"tuple,omitempty"`
	Bag   [][]valueJSON `json:"bag,omitempty"`
}

func toValueJSON(v Value) valueJSON {
	out := valueJSON{Kind: v.kind.String()}
	switch v.kind {
	case KindBool:
		out.Bool = v.boolean()
	case KindInt:
		out.Int = v.integer()
	case KindFloat:
		out.Float = v.float()
	case KindString:
		out.Str = v.str()
	case KindTuple:
		for _, e := range v.tuple() {
			out.Tuple = append(out.Tuple, toValueJSON(e))
		}
	case KindBag:
		for _, t := range v.bag().Tuples() {
			var row []valueJSON
			for _, e := range t {
				row = append(row, toValueJSON(e))
			}
			out.Bag = append(out.Bag, row)
		}
	}
	return out
}

func fromValueJSON(j valueJSON) (Value, error) {
	switch j.Kind {
	case "null":
		return Null(), nil
	case "bool":
		return NewBool(j.Bool), nil
	case "int":
		return NewInt(j.Int), nil
	case "float":
		return NewFloat(j.Float), nil
	case "string":
		return NewString(j.Str), nil
	case "tuple":
		t := make(Tuple, len(j.Tuple))
		for i, e := range j.Tuple {
			v, err := fromValueJSON(e)
			if err != nil {
				return Value{}, err
			}
			t[i] = v
		}
		return NewTuple(t), nil
	case "bag":
		bag := &Bag{}
		for _, row := range j.Bag {
			t := make(Tuple, len(row))
			for i, e := range row {
				v, err := fromValueJSON(e)
				if err != nil {
					return Value{}, err
				}
				t[i] = v
			}
			bag.Add(t)
		}
		return NewBag(bag), nil
	default:
		return Value{}, fmt.Errorf("types: unknown value kind %q in JSON", j.Kind)
	}
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	return json.Marshal(toValueJSON(v))
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var j valueJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	out, err := fromValueJSON(j)
	if err != nil {
		return err
	}
	*v = out
	return nil
}

// MarshalJSON implements json.Marshaler for Kind (as its name).
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON implements json.Unmarshaler for Kind.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "null":
		*k = KindNull
	case "bool":
		*k = KindBool
	case "int":
		*k = KindInt
	case "float":
		*k = KindFloat
	case "string":
		*k = KindString
	case "tuple":
		*k = KindTuple
	case "bag":
		*k = KindBag
	default:
		return fmt.Errorf("types: unknown kind %q", s)
	}
	return nil
}
