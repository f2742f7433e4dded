#include "sim/session.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace veritas::sim {

SessionResult run_session(const video::Video& video, abr::AbrAlgorithm& abr,
                          const net::NetworkPath& path,
                          const SessionConfig& config) {
  const double chunk_s = video.chunk_duration_s();
  VERITAS_EXPECTS(config.buffer_capacity_s >= chunk_s);
  VERITAS_EXPECTS(config.startup_chunks >= 1);

  abr.reset();
  net::TcpConnection connection = path.make_connection();
  PlayerBuffer buffer(config.buffer_capacity_s);

  SessionResult result;
  result.log.chunk_duration_s = chunk_s;
  result.log.rtt_s = path.rtt_s();
  result.log.chunks.reserve(video.num_chunks());
  result.qualities.reserve(video.num_chunks());

  std::vector<abr::DownloadedChunk> history;
  history.reserve(video.num_chunks());

  double now = 0.0;
  for (std::size_t n = 0; n < video.num_chunks(); ++n) {
    // Pacing: wait for buffer room. While waiting, playback drains the
    // buffer (a high buffer means no stall risk during the wait).
    if (!buffer.has_room(chunk_s)) {
      const double wait = buffer.time_until_room(chunk_s);
      buffer.advance(wait);
      now += wait;
    }

    abr::AbrContext context;
    context.video = &video;
    context.next_chunk = n;
    context.buffer_s = buffer.level_s();
    context.buffer_capacity_s = config.buffer_capacity_s;
    context.history = history;
    const std::size_t quality = abr.choose_quality(context);
    VERITAS_EXPECTS(quality < video.num_qualities());

    const double size_bytes = video.chunk_size_bytes(n, quality);
    const net::TcpState w = connection.snapshot(now);
    const net::DownloadResult download =
        connection.download(path.bandwidth(), now, size_bytes);

    // Playback continues during the download; stalls accrue if the
    // buffer empties.
    buffer.advance(download.duration_s());
    buffer.push_chunk(chunk_s);

    if (!buffer.playback_started() &&
        history.size() + 1 >= config.startup_chunks) {
      buffer.start_playback();
      result.startup_delay_s = download.end_s;
    }

    ChunkLog chunk;
    chunk.index = n;
    chunk.quality = quality;
    chunk.size_bytes = size_bytes;
    chunk.start_s = download.start_s;
    chunk.end_s = download.end_s;
    chunk.tcp_at_start = w;
    chunk.buffer_at_start_s = context.buffer_s;
    result.log.chunks.push_back(chunk);
    result.qualities.push_back(quality);

    abr::DownloadedChunk downloaded;
    downloaded.chunk_index = n;
    downloaded.quality = quality;
    downloaded.size_bytes = size_bytes;
    downloaded.duration_s = download.duration_s();
    history.push_back(downloaded);

    now = download.end_s;
  }

  // The session ends when the remaining buffer plays out.
  result.session_end_s = now + buffer.level_s();
  result.total_stall_s = buffer.total_stall_s();

  VERITAS_ENSURES(result.log.chunks.size() == video.num_chunks());
  return result;
}

}  // namespace veritas::sim
