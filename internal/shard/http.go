package shard

import (
	"fmt"
	"net/http"
	"strconv"

	"datastaging/internal/serve"
)

// Handler returns the sharded service's HTTP API: the single engine's /v1
// surface, served by the same handler set (serve.NewHandler), plus
// GET /v1/shards/{shard}/info for one region's own description.
func (s *Service) Handler() http.Handler {
	mux := serve.NewHandler(s, s.opts.Intro)
	mux.HandleFunc("GET /v1/shards/{shard}/info", s.handleShardInfo)
	return mux
}

func (s *Service) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || k < 0 || k >= len(s.engines) {
		serve.WriteError(w, http.StatusNotFound, fmt.Errorf("no such shard %q", r.PathValue("shard")))
		return
	}
	serve.WriteJSON(w, http.StatusOK, s.engines[k].Info())
}
