package lib

func Reached()   {}
func Unreached() {}
func Oracle()    {}

type Box[T any] struct{ v T }

func (b *Box[T]) Put(v T) { b.v = v }
