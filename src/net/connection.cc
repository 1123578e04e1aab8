#include "net/connection.h"

#include <algorithm>

namespace bw::net {

bool FrameParser::Feed(const void* data, size_t n,
                       std::vector<Frame>* out) {
  if (broken_) return false;
  buffer_.append(static_cast<const char*>(data), n);
  for (;;) {
    if (!have_header_) {
      if (buffer_.size() < kFrameHeaderBytes) return true;
      const auto verdict = DecodeFrameHeader(
          reinterpret_cast<const uint8_t*>(buffer_.data()), max_payload_,
          &header_);
      switch (verdict) {
        case HeaderVerdict::kOk:
          break;
        case HeaderVerdict::kBadMagic:
          broken_ = true;
          error_ = "bad frame magic";
          return false;
        case HeaderVerdict::kBadCrc:
          broken_ = true;
          error_ = "header CRC mismatch";
          return false;
        case HeaderVerdict::kOversized:
          broken_ = true;
          error_ = "declared payload length " +
                   std::to_string(header_.payload_len) + " exceeds cap " +
                   std::to_string(max_payload_);
          return false;
      }
      have_header_ = true;
    }
    const size_t frame_bytes = kFrameHeaderBytes + header_.payload_len;
    if (buffer_.size() < frame_bytes) return true;
    Frame frame;
    frame.header = header_;
    frame.payload = buffer_.substr(kFrameHeaderBytes, header_.payload_len);
    if (!PayloadCrcOk(frame.header, frame.payload)) {
      broken_ = true;
      error_ = "payload CRC mismatch";
      return false;
    }
    buffer_.erase(0, frame_bytes);
    have_header_ = false;
    out->push_back(std::move(frame));
  }
}

bool ResultRateLimiter::Admit(std::chrono::steady_clock::time_point now) {
  if (rate_ <= 0) return true;
  if (!primed_) {
    primed_ = true;
    last_refill_ = now;
  }
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  tokens_ = std::min(rate_, tokens_ + elapsed * rate_);
  return tokens_ > 0;
}

void Connection::DoomLocked(CloseReason reason) {
  doomed = true;
  if (close_reason == CloseReason::kNone) close_reason = reason;
}

}  // namespace bw::net
