package main

import (
	"net/http"

	"fixture/lib"
)

type handler struct{}

func (handler) serve(http.ResponseWriter, *http.Request) { lib.Reached() }

func viaClosure() {}

func main() {
	http.HandleFunc("/", handler{}.serve)
	new(lib.Box[int]).Put(1)
	run := func() { viaClosure() }
	run()
}
